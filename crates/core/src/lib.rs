//! # treelineage — tractable lineages on treelike instances
//!
//! This crate is the core of a from-scratch reproduction of
//! *Tractable Lineages on Treelike Instances: Limits and Extensions*
//! (Amarilli, Bourhis, Senellart — PODS 2016). It ties the workspace's
//! substrates together behind one API:
//!
//! * **Lineage construction** ([`LineageBuilder`]): the lineage of a UCQ≠ on
//!   an instance as a monotone circuit, a reduced OBDD under a
//!   decomposition-derived variable order (Theorems 6.5 / 6.7) and a d-DNNF
//!   (Theorem 6.11).
//! * **Probability evaluation** ([`ProbabilityEvaluator`]): exact query
//!   probability on tuple-independent databases through the compiled lineage
//!   (Theorem 3.2 / the tractable side of Theorem 4.2), plus model counting.
//! * **Match counting** ([`MatchCounter`]): counting interpretations of free
//!   second-order (selection) variables (Definition 5.6, Theorem 5.7's
//!   tractable side).
//!
//! The sibling crates provide the substrates (graphs and decompositions,
//! relational instances, query languages, Boolean function representations,
//! tree automata) and the paper's other directions (Datalog / relational
//! algebra provenance, safe queries and unfoldings, hardness gadgets and the
//! experiment harness). See the workspace `README.md`, `DESIGN.md` and
//! `EXPERIMENTS.md`.
//!
//! ```
//! use treelineage::prelude::*;
//!
//! // R(x), S(x,y), T(y) on the chain R(0), S(0,1), T(1).
//! let sig = Signature::builder()
//!     .relation("R", 1)
//!     .relation("S", 2)
//!     .relation("T", 1)
//!     .build();
//! let mut inst = Instance::new(sig.clone());
//! inst.add_fact_by_name("R", &[0]);
//! inst.add_fact_by_name("S", &[0, 1]);
//! inst.add_fact_by_name("T", &[1]);
//! let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
//!
//! let lineage = LineageBuilder::new(&q, &inst).unwrap();
//! let (manager, root) = lineage.dd();
//! assert_eq!(manager.count_models(root).to_u64(), Some(1));
//!
//! let valuation = ProbabilityValuation::all_one_half(&inst);
//! let p = ProbabilityEvaluator::new(&inst, &valuation)
//!     .query_probability(&q)
//!     .unwrap();
//! assert_eq!(p, Rational::from_ratio_u64(1, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counting;
mod lineage;
mod probability;

pub use counting::MatchCounter;
pub use lineage::{
    obdd_to_circuit, AutomatonLineage, LineageBackend, LineageBuilder, LineageError,
};
pub use probability::{model_check, ProbabilityEvaluator};
pub use treelineage_engine::{
    karp_luby_probability, karp_luby_sample_bound, validate_insert, validate_retract,
    CacheOccupancy, CircuitPartition, DecisionTier, EngineConfig, EngineError, EvalSession,
    KarpLubyEstimate, MetricsSnapshot, ParallelDnnf, ProbabilityRequest, Registry, SessionBackend,
    SessionStats, Span, SpanEvent, Telemetry, ThresholdDecision, ThresholdRequest, UpdateError,
    UpdateKind, UpdateReport, WmcRequest,
};

/// Convenience re-exports of the types most users need.
pub mod prelude {
    pub use crate::{
        model_check, AutomatonLineage, CacheOccupancy, EngineConfig, EvalSession, LineageBackend,
        LineageBuilder, LineageError, MatchCounter, MetricsSnapshot, ProbabilityEvaluator,
        SessionBackend, Telemetry, UpdateError, UpdateKind, UpdateReport,
    };
    pub use treelineage_circuit::{Circuit, Dnnf, Formula, Vtree};
    pub use treelineage_dd::{Manager as DdManager, NodeId as DdNodeId, Stats as DdStats};
    pub use treelineage_graph::{Graph, TreeDecomposition};
    pub use treelineage_instance::{
        Element, FactId, Instance, ProbabilityValuation, RelationId, Signature,
        TupleIndependentDatabase,
    };
    pub use treelineage_num::{BigInt, BigUint, ErrorInterval, Rational};
    pub use treelineage_query::{
        parse_query, ConjunctiveQuery, MsoFormula, UnionOfConjunctiveQueries,
    };
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use treelineage_instance::encodings;
    use treelineage_query::matching;

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
            "R(x, y), R(y, z), x != z | S(x, y), S(y, z), x != z",
        ]
        .iter()
        .map(|t| parse_query(&sig(), t).unwrap())
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn lineage_representations_agree_with_bruteforce(seed in 0u64..500, qi in 0usize..4) {
            let inst = encodings::random_treelike_instance(&sig(), 6, 2, seed);
            prop_assume!(inst.fact_count() <= 12 && inst.fact_count() > 0);
            let q = &queries()[qi];
            let builder = LineageBuilder::new(q, &inst).unwrap();
            let circuit = builder.circuit();
            let (manager, root) = builder.dd();
            let ddnnf = builder.ddnnf();
            for mask in 0u32..(1 << inst.fact_count()) {
                let world: BTreeSet<FactId> = (0..inst.fact_count())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(FactId)
                    .collect();
                let expected = matching::satisfied_in_world(q, &inst, &world);
                let vars: BTreeSet<usize> = world.iter().map(|f| f.0).collect();
                prop_assert_eq!(circuit.evaluate_set(&vars), expected);
                prop_assert_eq!(manager.evaluate(root, &vars), expected);
                prop_assert_eq!(ddnnf.circuit().evaluate_set(&vars), expected);
            }
        }

        #[test]
        fn probability_pipelines_agree(seed in 0u64..500, qi in 0usize..4) {
            let inst = encodings::random_treelike_instance(&sig(), 6, 2, seed);
            prop_assume!(inst.fact_count() <= 10 && inst.fact_count() > 0);
            let q = &queries()[qi];
            let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
            let valuation = ProbabilityValuation::from_f64(&inst, &probs);
            let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
            let brute = evaluator.query_probability_bruteforce(q);
            prop_assert_eq!(evaluator.query_probability(q).unwrap(), brute.clone());
            prop_assert_eq!(evaluator.query_probability_via_ddnnf(q).unwrap(), brute);
            prop_assert_eq!(
                evaluator.model_count(q).unwrap().to_u64(),
                evaluator.model_count_bruteforce(q).to_u64()
            );
        }
    }
}
