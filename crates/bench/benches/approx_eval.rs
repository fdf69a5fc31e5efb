//! PR 6 approximate-evaluation bench: the certified f64 interval pass and
//! the float-first serving policy against the exact-rational baseline
//! (recorded in `BENCH_pr6.json`).
//!
//! The workload is the `engine_scaling` bench's **eval-bound** shape: a
//! chain of n = 50 links (150 facts) under `R(x), S(x, y), T(y)`, 16
//! requests with distinct mixed-dyadic weight vectors. The exact pass is
//! inherently per-request, so a session cache cannot help it. When the
//! exact pass reduced a `Rational` at every gate, the batch took ~800 ms
//! and the float pass (the same recurrence in interval arithmetic) was 42×
//! faster (`BENCH_pr6.json`). The exact pass is now fraction-free (one
//! integer pass, one reduction per answer) and the order flipped: one run
//! on a 2-vCPU Xeon guest measured 9.4 ms for the exact batch against
//! 38 ms for the float batch.
//!
//! Rows:
//!
//! * `exact_probability_batch` — warm exact session, `batch_probability`
//!   (the PR 5 baseline, re-measured).
//! * `float_probability_batch` — warm FloatFirst session,
//!   `batch_probability_f64`: certified `(midpoint, interval)` per request.
//! * `float_threshold_batch` — `batch_threshold` at a far-away threshold:
//!   every decision resolves in the float tier, no exact fallback.
//! * `karp_luby_m3` — the Monte-Carlo fallback at paper-grade
//!   `(ε, δ) = (0.01, 0.01)` on a 3-clause DNF (the Karp–Luby–Madras
//!   sample bound `⌈4m·ln(2/δ)/ε²⌉` ≈ 636k worlds): the price of an answer
//!   when the compile budget is blown.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage::{karp_luby_probability, ProbabilityRequest, ThresholdRequest};

const BATCH: usize = 16;

fn chain_sig() -> Signature {
    Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build()
}

fn chain(n: usize) -> Instance {
    let mut inst = Instance::new(chain_sig());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    inst
}

fn benches(c: &mut Criterion) {
    let sig = chain_sig();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let inst = chain(50);
    let valuation_of = |k: usize| {
        ProbabilityValuation::from_probabilities(
            &inst,
            (0..inst.fact_count())
                .map(|v| Rational::from_ratio_u64(1, 1 << ((v + k) % 3 + 1)))
                .collect(),
        )
    };

    let mut group = c.benchmark_group("approx_eval");
    group.sample_size(3);

    let mut exact = EvalSession::new(EngineConfig::default());
    let qid = exact.register_query(q.clone());
    let iid = exact.register_instance(inst.clone());
    let requests: Vec<ProbabilityRequest> = (0..BATCH)
        .map(|k| ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation_of(k),
        })
        .collect();
    let _ = exact.batch_probability(&requests);
    group.bench_function(BenchmarkId::new("exact_probability_batch", BATCH), |b| {
        b.iter(|| exact.batch_probability(&requests))
    });

    let mut float = EvalSession::with_backend(EngineConfig::default(), SessionBackend::FloatFirst);
    let fqid = float.register_query(q.clone());
    let fiid = float.register_instance(inst.clone());
    let float_requests: Vec<ProbabilityRequest> = (0..BATCH)
        .map(|k| ProbabilityRequest {
            query: fqid,
            instance: fiid,
            valuation: valuation_of(k),
        })
        .collect();
    let _ = float.batch_probability_f64(&float_requests);
    group.bench_function(BenchmarkId::new("float_probability_batch", BATCH), |b| {
        b.iter(|| float.batch_probability_f64(&float_requests))
    });

    // Far-away threshold: every request decides in the float tier.
    let threshold_requests: Vec<ThresholdRequest> = (0..BATCH)
        .map(|k| ThresholdRequest {
            query: fqid,
            instance: fiid,
            valuation: valuation_of(k),
            threshold: Rational::one_half(),
        })
        .collect();
    let _ = float.batch_threshold(&threshold_requests);
    group.bench_function(BenchmarkId::new("float_threshold_batch", BATCH), |b| {
        b.iter(|| float.batch_threshold(&threshold_requests))
    });

    // Monte-Carlo fallback: 3 DNF clauses at (0.01, 0.01) — the worst-case
    // price per answer when exact compilation is impossible.
    let mut kl_inst = Instance::new(sig.clone());
    for i in 0..3u64 {
        kl_inst.add_fact_by_name("R", &[i]);
        kl_inst.add_fact_by_name("S", &[i, i + 1]);
        kl_inst.add_fact_by_name("T", &[i + 1]);
    }
    let kl_valuation = ProbabilityValuation::uniform(&kl_inst, Rational::from_ratio_u64(1, 3));
    group.bench_function(BenchmarkId::new("karp_luby_m3", "eps0.01"), |b| {
        b.iter(|| karp_luby_probability(&q, &kl_inst, &kl_valuation, 0.01, 0.01, 42))
    });

    group.finish();
}

criterion_group!(approx_eval, benches);
criterion_main!(approx_eval);
