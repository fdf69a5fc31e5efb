//! PR 4 encoding-pipeline bench: match enumeration vs the automaton
//! pipeline (recorded in `BENCH_pr4.json`).
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
//! * `automaton_eval_only` / `automaton_count_only` — one pass over the
//!   pre-compiled provenance d-SDNNF (the many-valuations regime): the
//!   exact-probability pass (rational arithmetic, whose bignum cost grows
//!   with the instance — benched below the cliff) and the integer
//!   model-counting pass (benched everywhere).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use treelineage::prelude::*;
use treelineage_bench::dyadic_prob;

/// A star join of treewidth 1: `n/2` edges into the center and `n/2` out of
/// it, so `S(x, y), S(y, z), x != z` has ~`n²/4` matches through the center.
fn star_instance(sig: &Signature, n: usize) -> Instance {
    let mut inst = Instance::new(sig.clone());
    for leaf in 1..=n as u64 {
        if leaf % 2 == 0 {
            inst.add_fact_by_name("S", &[0, leaf]);
        } else {
            inst.add_fact_by_name("S", &[leaf, 0]);
        }
    }
    inst
}

/// The star's known width-1 path decomposition: one `{center, leaf}` bag
/// per leaf. (Vertex ids equal element values: the domain is `0..=n`.)
fn star_decomposition(n: usize) -> TreeDecomposition {
    let bags: Vec<BTreeSet<usize>> = (1..=n)
        .map(|leaf| [0usize, leaf].into_iter().collect())
        .collect();
    TreeDecomposition::path_from_bags(bags)
}

fn chain_instance(sig: &Signature, n: usize) -> Instance {
    let mut inst = Instance::new(sig.clone());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    inst
}

/// The chain's known width-1 path decomposition: bags `{i, i+1}`.
fn chain_decomposition(n: usize) -> TreeDecomposition {
    let bags: Vec<BTreeSet<usize>> = (0..n).map(|i| [i, i + 1].into_iter().collect()).collect();
    TreeDecomposition::path_from_bags(bags)
}

fn bench_family(
    c: &mut Criterion,
    group_name: &str,
    query: &UnionOfConjunctiveQueries,
    cases: Vec<(usize, Instance, TreeDecomposition)>,
    enumeration_cliff: usize,
    eval_cap: usize,
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
        let lineage = LineageBuilder::new(query, inst)
            .unwrap()
            .with_decomposition(td.clone())
            .unwrap()
            .automaton_lineage()
            .unwrap();
        // The exact-probability pass is capped separately: its bignum cost
        // grows with the fact count regardless of compilation strategy.
        if *n <= eval_cap {
            group.bench_with_input(BenchmarkId::new("automaton_eval_only", n), n, |b, _| {
                b.iter(|| lineage.probability(&dyadic_prob))
            });
        }
        group.bench_with_input(BenchmarkId::new("automaton_count_only", n), n, |b, _| {
            b.iter(|| lineage.model_count())
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
    bench_family(c, "pr4_encoding_pipeline_star", &q, cases, 400, 400);
}

fn bench_chain(c: &mut Criterion) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let cases = [100usize, 1000]
        .into_iter()
        .map(|n| (n, chain_instance(&sig, n), chain_decomposition(n)))
        .collect();
    bench_family(c, "pr4_encoding_pipeline_chain", &q, cases, 1000, 100);
}

criterion_group!(benches, bench_star, bench_chain);
criterion_main!(benches);
