//! PR 10 update-throughput bench: single-fact maintenance against cold
//! recompilation (recorded in `BENCH_pr10.json`).
//!
//! Three instance shapes bracket the fragment-locality claim — a chain
//! (pathwidth 1, many fragments, an update touches a constant-size
//! neighbourhood), a star (one hub bag: every fact near the root), and a
//! 4×4 grid (the widest decomposition the exact pipeline serves
//! comfortably). On each shape, per iteration:
//!
//! * `structural_update_reeval` — retract the last fact, re-answer the
//!   query, insert the fact back, re-answer again: two fragment-level
//!   dirty recompiles plus two evaluations on a warm [`EvalSession`].
//!   The recompile replays every content-unchanged fragment from the
//!   invalidated artifact's library, so only the update's neighbourhood
//!   is recompiled (byte-identically to cold — `tests/update_differential.rs`
//!   pins that).
//! * `set_probability_reeval` — the cheap tier: flip one fact's
//!   probability and re-answer. No structural invalidation at all; the
//!   lineage stays cached and only the evaluation pass runs.
//! * `cold_reeval` — the comparator: a from-scratch
//!   [`EvalSession::cold_lineage`] compile of the same pair (fresh
//!   encoding, every fragment recompiled) plus one evaluation pass.
//!
//! When `BENCH_pr10.json` was recorded, exact per-gate `Rational`
//! evaluation dominated wall-clock on these sizes, so the interesting
//! margin was `structural_update_reeval ≈ 2 × cold_reeval` minus the
//! fragments the library replays (see its per-shape notes). The exact pass
//! is fraction-free now, and compile dominates instead: one run on a
//! 2-vCPU Xeon guest measured the pure-evaluation row
//! `set_probability_reeval` at 0.2–2.1 ms against 1.3–20 ms for
//! `structural_update_reeval`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage::ProbabilityRequest;
use treelineage_instance::encodings;

const CHAIN: usize = 24;
const STAR: usize = 24;
const GRID: usize = 4;

fn chain_shape() -> (Instance, UnionOfConjunctiveQueries) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..CHAIN as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    (inst, q)
}

fn star_shape() -> (Instance, UnionOfConjunctiveQueries) {
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("L", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 1..=STAR as u64 {
        inst.add_fact_by_name("S", &[0, i]);
        inst.add_fact_by_name("L", &[i]);
    }
    let q = parse_query(&sig, "S(x, y), L(y)").unwrap();
    (inst, q)
}

fn grid_shape() -> (Instance, UnionOfConjunctiveQueries) {
    let sig = Signature::builder().relation("S", 2).build();
    let s = sig.relation_by_name("S").unwrap();
    let inst = encodings::grid_instance(&sig, s, GRID, GRID);
    let q = parse_query(&sig, "S(x, y)").unwrap();
    (inst, q)
}

fn benches(c: &mut Criterion) {
    let shapes: [(&str, usize, (Instance, UnionOfConjunctiveQueries)); 3] = [
        ("chain", CHAIN, chain_shape()),
        ("star", STAR, star_shape()),
        ("grid", GRID * GRID, grid_shape()),
    ];

    let mut group = c.benchmark_group("update_throughput");
    group.sample_size(3);

    for (shape, size, (inst, q)) in &shapes {
        let mut session =
            EvalSession::with_backend(EngineConfig::with_threads(2), SessionBackend::Automaton);
        let qid = session.register_query(q.clone());
        let iid = session.register_instance(inst.clone());
        let answer = |session: &EvalSession| {
            session.batch_probability(&[ProbabilityRequest {
                query: qid,
                instance: iid,
                valuation: session.valuation(iid).clone(),
            }])[0]
                .clone()
                .unwrap()
        };
        // Warm every cache layer so the rows price maintenance, not the
        // cold start.
        let _ = answer(&session);

        let last = FactId(inst.fact_count() - 1);
        let last_p = session.valuation(iid).probability(last).clone();
        group.bench_function(BenchmarkId::new("structural_update_reeval", *shape), |b| {
            b.iter(|| {
                session.retract_fact(iid, last).unwrap();
                let without = answer(&session);
                session
                    .insert_fact(iid, inst.fact(last).clone(), last_p.clone())
                    .unwrap();
                let with = answer(&session);
                (without, with)
            })
        });

        let mut flip = false;
        group.bench_function(BenchmarkId::new("set_probability_reeval", *shape), |b| {
            b.iter(|| {
                flip = !flip;
                let p = if flip {
                    Rational::from_ratio_u64(1, 3)
                } else {
                    Rational::from_ratio_u64(1, 4)
                };
                session.set_probability(iid, FactId(0), p).unwrap();
                answer(&session)
            })
        });

        group.bench_function(BenchmarkId::new("cold_reeval", *shape), |b| {
            b.iter(|| {
                let artifact = session.cold_lineage(qid, iid).unwrap();
                artifact.probability(
                    &|v| session.valuation(iid).probability(FactId(v)).clone(),
                    2,
                )
            })
        });
        let _ = size;
    }
    group.finish();
}

criterion_group!(update_benches, benches);
criterion_main!(update_benches);
