//! Engine-scaling bench: the parallel subtree engine at thread counts
//! {1, 2, 4, 8}, on the star and grid families of the encoding pipeline
//! bench (known decompositions, so the timed work is the engine).
//! perfbench's workloads run at fixed thread counts, so this is the one
//! target that sweeps them (EXPERIMENTS.md §E-7).
//!
//! * `compile/t{N}` — end-to-end automaton-backend lineage compile
//!   (encode → query automaton → provenance d-SDNNF) through
//!   `EngineConfig::with_threads(N)`. `t1` is the sequential baseline the
//!   bit-identity contract is pinned against.
//! * `eval/t{N}` — the integer model-counting pass over the pre-compiled
//!   artifact, fragment-parallel at N threads.
//!
//! Serving through a warm `EvalSession` is timed end to end by perfbench:
//! `serve_exact` for warm batches, `cold_p50_ms` for a registration and its
//! first answer.
//!
//! Thread-scaling results are hardware-dependent: on a single-core
//! container the `t{N}` variants measure scheduler overhead (expect ≈1×),
//! while on a multi-core host the disjoint-subtree fan-out applies.
//! `TREELINEAGE_THREADS` (default 8) caps the largest thread count benched.

mod common;

use common::{star_decomposition, star_instance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage_instance::encodings;

fn thread_counts() -> Vec<usize> {
    let cap: usize = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= cap.max(1))
        .collect()
}

fn bench_family(
    c: &mut Criterion,
    group_name: &str,
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
    decomposition: Option<TreeDecomposition>,
    base_config: EngineConfig,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(3);
    let builder = |config: EngineConfig| {
        let mut b = LineageBuilder::new(query, instance)
            .unwrap()
            .with_engine_config(config);
        if let Some(td) = &decomposition {
            b = b.with_decomposition(td.clone()).unwrap();
        }
        b
    };
    for &threads in &thread_counts() {
        let config = EngineConfig {
            threads,
            ..base_config.clone()
        };
        group.bench_with_input(
            BenchmarkId::new("compile", format!("t{threads}")),
            &threads,
            |b, _| b.iter(|| builder(config.clone()).automaton_lineage().unwrap()),
        );
        let lineage = builder(config).automaton_lineage().unwrap();
        group.bench_with_input(
            BenchmarkId::new("eval", format!("t{threads}")),
            &threads,
            |b, _| b.iter(|| lineage.model_count()),
        );
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    let star_sig = Signature::builder().relation("S", 2).build();
    let star_q = parse_query(&star_sig, "S(x, y), S(y, z), x != z").unwrap();
    for n in [1000usize, 4000] {
        bench_family(
            c,
            &format!("engine_star_{n}"),
            &star_q,
            &star_instance(&star_sig, n),
            Some(star_decomposition(n)),
            EngineConfig::default(),
        );
    }

    let grid_sig = Signature::builder().relation("S", 2).build();
    let s = grid_sig.relation_by_name("S").unwrap();
    let grid_q = parse_query(&grid_sig, "S(x, y), S(y, z), x != z").unwrap();
    let grid = encodings::grid_instance(&grid_sig, s, 3, 60);
    // The grid family saturates at 4187 deterministic states — just past
    // the default budget — so the bench raises it via the engine knob.
    let grid_config = EngineConfig {
        state_budget: 16_384,
        ..EngineConfig::default()
    };
    bench_family(c, "engine_grid_3x60", &grid_q, &grid, None, grid_config);
}

criterion_group!(engine_scaling, benches);
criterion_main!(engine_scaling);
