//! Approximate-evaluation differential suite (PR 6): the float fast-path's
//! containment certificate and the float-first serving policy, pinned
//! against the exact backends.
//!
//! Three guarantees are exercised on random treelike instances
//! (`treelineage_instance::strategies`):
//!
//! * **containment** — the certified interval pass always contains the
//!   exact rational probability, on both lineage objects (the OBDD's
//!   `query_probability_f64` and the automaton d-SDNNF's
//!   `probability_interval`);
//! * **decision fidelity** — a [`SessionBackend::FloatFirst`] session's
//!   threshold decisions are bit-identical to the exact backend's, even
//!   when the threshold lands inside the interval (the exact-fallback
//!   trigger);
//! * **bounded degradation** — the Karp–Luby estimator at `(ε, δ) =
//!   (0.01, 0.01)` lands within `ε` (relatively) of the exact answer on
//!   tractable instances, with the documented sample bound.
//!
//! The first two are exact statements (`contains` on the enclosure, `==`
//! on the decision bit); only the Karp–Luby check is probabilistic, and it
//! runs on pinned seeds so CI is deterministic.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::{karp_luby_probability, karp_luby_sample_bound, DecisionTier, ThresholdRequest};
use treelineage_instance::strategies as instance_strategies;

fn sig() -> Signature {
    Signature::builder()
        .relation("R", 2)
        .relation("S", 2)
        .relation("L", 1)
        .build()
}

fn queries() -> Vec<UnionOfConjunctiveQueries> {
    [
        "R(x, y), S(y, z)",
        "S(x, y), S(y, z), x != z",
        "L(x), R(x, y) | L(y), S(x, y)",
    ]
    .iter()
    .map(|t| parse_query(&sig(), t).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The float pass's interval contains the exact probability on both
    /// routes, and stays bit-identical across thread counts on the
    /// fragment-parallel automaton route.
    #[test]
    fn float_interval_always_contains_exact(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let probs: Vec<f64> = (0..inst.fact_count())
            .map(|i| [0.5, 0.25, 0.75, 0.125, 1.0 / 3.0][i % 5])
            .collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation).with_decomposition(td.clone());
        let exact = evaluator.query_probability(q).unwrap();
        let weight = |v: usize| ErrorInterval::from_rational(valuation.probability(FactId(v)));
        let automaton = |config: EngineConfig| {
            let threads = config.threads;
            LineageBuilder::new(q, &inst)
                .unwrap()
                .with_engine_config(config)
                .with_decomposition(td.clone())
                .unwrap()
                .automaton_lineage()
                .unwrap()
                .probability_interval(&weight, threads)
        };
        let reference = automaton(EngineConfig::default());
        for (route, (estimate, interval)) in [
            ("obdd", evaluator.query_probability_f64(q).unwrap()),
            ("automaton", (reference.midpoint(), reference)),
        ] {
            prop_assert!(interval.contains(&exact),
                "{}: exact {} outside [{}, {}]", route, exact.to_f64(), interval.lo(), interval.hi());
            prop_assert!(interval.contains_f64(estimate), "{}", route);
            // Small circuits: the enclosure is tight enough to decide
            // against any threshold more than a hair away from the answer.
            prop_assert!(interval.width() < 1e-10, "{}: width {}", route, interval.width());
        }
        // Thread-count invariance of the interval pass itself.
        for threads in [2usize, 8] {
            let mut config = EngineConfig::with_threads(threads);
            config.fragment_grain = 4;
            prop_assert_eq!(automaton(config), reference, "threads={}", threads);
        }
    }

    /// A FloatFirst session decides thresholds bit-identically to the exact
    /// backend: the float tier answers whenever its interval resolves the
    /// comparison, and the exact fallback covers the rest — including a
    /// threshold equal to the exact answer, which always lands inside the
    /// interval.
    #[test]
    fn float_first_threshold_decisions_are_bit_identical(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = queries()[qi].clone();
        let valuation =
            ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(1, 3));
        let mut sessions: Vec<EvalSession> =
            [SessionBackend::FloatFirst, SessionBackend::Automaton]
                .into_iter()
                .map(|b| EvalSession::with_backend(EngineConfig::with_threads(2), b))
                .collect();
        let mut decisions = Vec::new();
        let mut exact_answers = Vec::new();
        for session in &mut sessions {
            let qid = session.register_query(q.clone());
            let iid = session
                .register_instance_with_decomposition(inst.clone(), td.clone())
                .unwrap();
            let exact = session.batch_probability(&[treelineage::ProbabilityRequest {
                query: qid,
                instance: iid,
                valuation: valuation.clone(),
            }])[0]
                .clone()
                .unwrap();
            let thresholds = [
                Rational::zero(),
                Rational::from_ratio_u64(1, 97),
                Rational::one_half(),
                exact.clone(),
                Rational::one(),
            ];
            let requests: Vec<ThresholdRequest> = thresholds
                .iter()
                .map(|t| ThresholdRequest {
                    query: qid,
                    instance: iid,
                    valuation: valuation.clone(),
                    threshold: t.clone(),
                })
                .collect();
            decisions.push(session.batch_threshold(&requests));
            exact_answers.push(exact);
        }
        prop_assert_eq!(&exact_answers[0], &exact_answers[1]);
        for (k, (f, e)) in decisions[0].iter().zip(&decisions[1]).enumerate() {
            let f = f.as_ref().unwrap();
            let e = e.as_ref().unwrap();
            prop_assert_eq!(f.above, e.above, "threshold {}", k);
            // The exact backend never leaves the exact tier; the float
            // session must fall back on the inside-the-interval threshold.
            prop_assert_eq!(e.tier, DecisionTier::Exact);
            if k == 3 {
                prop_assert_eq!(f.tier, DecisionTier::Exact);
                prop_assert!(!f.above, "p > p is false");
            }
        }
        // At least the far-away thresholds were served by the float tier.
        prop_assert!(sessions[0].stats().float_decisions >= 2);
    }
}

/// The Karp–Luby estimator at the paper-grade `(ε, δ) = (0.01, 0.01)` lands
/// within relative `ε` of the exact answer on tractable instances (checked
/// on pinned seeds; the bound itself holds with probability `1 − δ`).
///
/// The sample bound is `⌈4·m·ln(2/δ)/ε²⌉` for `m` DNF clauses, so the test
/// instances are kept to a handful of query matches — enough to exercise
/// the clause-weighted world sampler, small enough that CI stays fast.
#[test]
fn karp_luby_within_epsilon_of_exact() {
    let sig = sig();
    let q = parse_query(&sig, "R(x, y), S(y, z)").unwrap();
    let (epsilon, delta) = (0.01, 0.01);
    // An R/S chain: R(0,1) S(1,2) R(2,3) S(3,4) ... — exactly one match per
    // consecutive (R, S) pair, so `links` DNF clauses.
    for links in [1usize, 2, 3] {
        let mut inst = Instance::new(sig.clone());
        for i in 0..links as u64 {
            inst.add_fact_by_name("R", &[2 * i, 2 * i + 1]);
            inst.add_fact_by_name("S", &[2 * i + 1, 2 * i + 2]);
        }
        let valuation = ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(1, 3));
        let exact = ProbabilityEvaluator::new(&inst, &valuation)
            .query_probability(&q)
            .unwrap()
            .to_f64();
        for seed in [7u64, 101] {
            let kl = karp_luby_probability(&q, &inst, &valuation, epsilon, delta, seed);
            assert_eq!(kl.clauses, links);
            assert_eq!(
                kl.samples,
                karp_luby_sample_bound(links, epsilon, delta),
                "links {links}"
            );
            assert!(
                (kl.estimate - exact).abs() <= epsilon * exact,
                "links {links} seed {seed}: estimate {} vs exact {exact}",
                kl.estimate
            );
            assert!(kl.interval().contains_f64(kl.estimate));
        }
    }
}
