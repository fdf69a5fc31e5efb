//! PR 7 telemetry-overhead bench: the instrumented pipeline against the
//! default no-op sink (recorded in `BENCH_pr7.json`).
//!
//! The workload is the §E-7 serving shape re-used by the PR 6 bench: a
//! chain of n = 50 links (150 facts) under `R(x), S(x, y), T(y)`, served
//! from one warm `EvalSession` in a batch of 16. Two serving tiers bracket
//! the sensitivity:
//!
//! * `exact_batch_{noop,instrumented}` — `batch_probability`: the exact
//!   pass dominates. It took ~50 ms per request when `BENCH_pr7.json` was
//!   recorded, and the fraction-free pass takes ~0.7 ms (one run on a
//!   2-vCPU Xeon guest), so this row is no longer insensitive to
//!   per-request telemetry work. It pins the headline "≤ 5% instrumented"
//!   acceptance on the shape earlier PRs recorded.
//! * `float_batch_{noop,instrumented}` — `batch_probability_f64` on a
//!   FloatFirst session: the certified interval pass (~2.8 ms per request
//!   in the same run), the adversarial row for the no-op claim when it
//!   was the cheap tier.
//! * `cold_compile_{noop,instrumented}` — a cold `LineageBuilder`
//!   compile per iteration: the stage-span path (encode → query machine →
//!   d-SDNNF), where spans fire once per stage rather than per request.
//! * `snapshot_export` — `EvalSession::metrics()` plus both export
//!   encodings on the warm instrumented session: the cost of *reading*
//!   telemetry, which serving code pays only when scraped.
//!
//! The no-op rows double as the pre-PR baseline: the disabled handle
//! compiles to a `None` branch per call site, and `BENCH_pr7.json` records
//! them next to the PR 6 figures for the same shape to show the seam added
//! nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelineage::prelude::*;
use treelineage::ProbabilityRequest;

const BATCH: usize = 16;
const CHAIN: usize = 50;

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

fn config(telemetry: Telemetry) -> EngineConfig {
    EngineConfig {
        telemetry,
        ..EngineConfig::default()
    }
}

fn benches(c: &mut Criterion) {
    let sig = chain_sig();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let inst = chain(CHAIN);
    let valuation_of = |k: usize| {
        ProbabilityValuation::from_probabilities(
            &inst,
            (0..inst.fact_count())
                .map(|v| Rational::from_ratio_u64(1, 1 << ((v + k) % 3 + 1)))
                .collect(),
        )
    };

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(3);

    let variants = [
        ("noop", Telemetry::disabled()),
        ("instrumented", Telemetry::enabled()),
    ];

    for (label, telemetry) in &variants {
        let mut exact = EvalSession::new(config(telemetry.clone()));
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
        group.bench_function(
            BenchmarkId::new(format!("exact_batch_{label}"), BATCH),
            |b| b.iter(|| exact.batch_probability(&requests)),
        );

        let mut float =
            EvalSession::with_backend(config(telemetry.clone()), SessionBackend::FloatFirst);
        let qid = float.register_query(q.clone());
        let iid = float.register_instance(inst.clone());
        let requests: Vec<ProbabilityRequest> = (0..BATCH)
            .map(|k| ProbabilityRequest {
                query: qid,
                instance: iid,
                valuation: valuation_of(k),
            })
            .collect();
        let _ = float.batch_probability_f64(&requests);
        group.bench_function(
            BenchmarkId::new(format!("float_batch_{label}"), BATCH),
            |b| b.iter(|| float.batch_probability_f64(&requests)),
        );

        group.bench_function(
            BenchmarkId::new(format!("cold_compile_{label}"), CHAIN),
            |b| {
                b.iter(|| {
                    LineageBuilder::new(&q, &inst)
                        .unwrap()
                        .with_engine_config(config(telemetry.clone()))
                        .automaton_lineage()
                        .unwrap()
                })
            },
        );
    }

    // Reading telemetry: merge the registry with session/caches/dd stats and
    // encode both export formats. Priced on a warm instrumented session so
    // the snapshot has realistic cardinality.
    let mut session = EvalSession::new(config(Telemetry::enabled()));
    let qid = session.register_query(q.clone());
    let iid = session.register_instance(inst.clone());
    let requests: Vec<ProbabilityRequest> = (0..BATCH)
        .map(|k| ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation_of(k),
        })
        .collect();
    let _ = session.batch_probability(&requests);
    group.bench_function(BenchmarkId::new("snapshot_export", "warm"), |b| {
        b.iter(|| {
            let snap = session.metrics();
            (snap.to_json_lines().len(), snap.to_prometheus().len())
        })
    });

    group.finish();
}

criterion_group!(benches_group, benches);
criterion_main!(benches_group);
