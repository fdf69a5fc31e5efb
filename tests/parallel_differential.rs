//! Parallel-determinism differential suite (PR 5): the engine's
//! bit-identity contract, pinned end to end.
//!
//! Two layers of guarantees are exercised on random treelike instances
//! (`treelineage_instance::strategies`) and random uncertain trees
//! (`treelineage_automata::strategies`):
//!
//! * **byte-identical artifacts** — the parallel subtree compiler's circuit
//!   and vtree equal the sequential `compile_structured_dnnf`'s gate for
//!   gate and node for node, at every thread count (no iteration-order
//!   leakage from worker scheduling);
//! * **exactly equal answers** — the automaton lineage returns the same
//!   probability / model count / WMC as the OBDD at `threads ∈ {1, 2, 8}`
//!   (plus the count from `TREELINEAGE_THREADS`, which the CI matrix leg
//!   sets to 8), and an `EvalSession`'s cache hits return exactly what the
//!   cold compile returned.
//!
//! All arithmetic is exact, so "equal" means `==` on `Rational`/`BigUint`,
//! not approximate agreement.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::ProbabilityRequest;
use treelineage_automata::{compile_structured_dnnf, strategies as tree_strategies};
use treelineage_engine::compile_structured_dnnf_parallel;
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

/// The thread counts under test: the fixed grid plus the CI matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Some(t) = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The automaton route, at every thread count, returns exactly the
    /// answers of the OBDD route (which has no thread count).
    #[test]
    fn backends_are_thread_count_invariant(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let pos = |f: FactId| Rational::from_ratio_u64(f.0 as u64 + 2, 3);
        let neg = |f: FactId| Rational::from_ratio_u64(1, f.0 as u64 + 1);
        let obdd = ProbabilityEvaluator::new(&inst, &valuation).with_decomposition(td.clone());
        let p0 = obdd.query_probability(q).unwrap();
        let mc0 = obdd.model_count(q).unwrap();
        let wmc0 = obdd.query_wmc(q, &pos, &neg).unwrap();
        let prob = |v: usize| valuation.probability(FactId(v)).clone();
        for threads in thread_counts() {
            let mut config = EngineConfig::with_threads(threads);
            // A tiny grain forces the cut/merge path even on these
            // small instances, so the merge logic is what's tested.
            config.fragment_grain = 4;
            let parallel = LineageBuilder::new(q, &inst)
                .unwrap()
                .with_engine_config(config)
                .with_decomposition(td.clone())
                .unwrap()
                .automaton_lineage()
                .unwrap();
            prop_assert_eq!(parallel.probability(&prob, threads), p0.clone(),
                "automaton probability, threads={}", threads);
            prop_assert_eq!(parallel.model_count(threads), mc0.clone(),
                "automaton model count, threads={}", threads);
            let wmc = parallel.wmc(&|v| pos(FactId(v)), &|v| neg(FactId(v)), threads);
            prop_assert_eq!(wmc, wmc0.clone(), "automaton wmc, threads={}", threads);
        }
    }

    /// The parallel compiler's artifact is byte-identical to the sequential
    /// one on random uncertain trees: same gates at the same ids with the
    /// same operands, same vtree, same universe.
    #[test]
    fn parallel_artifacts_are_byte_identical(
        tree in tree_strategies::uncertain_tree(48, 3),
        automaton in tree_strategies::deterministic_automaton(3, 4),
    ) {
        let sequential = match compile_structured_dnnf(&automaton, &tree) {
            Ok(s) => s,
            // Shared events: rejected identically (engine unit tests pin this).
            Err(_) => continue,
        };
        for threads in thread_counts() {
            let mut config = EngineConfig::with_threads(threads);
            config.fragment_grain = 6;
            let parallel = compile_structured_dnnf_parallel(&automaton, &tree, &config).unwrap();
            let pc = parallel.structured().dnnf().circuit();
            let sc = sequential.dnnf().circuit();
            prop_assert_eq!(pc.size(), sc.size());
            for id in pc.gate_ids() {
                prop_assert_eq!(pc.gate(id), sc.gate(id), "gate {:?}, threads={}", id, threads);
            }
            prop_assert_eq!(pc.output(), sc.output());
            let (pv, sv) = (parallel.structured().vtree(), sequential.vtree());
            prop_assert_eq!(pv.node_count(), sv.node_count());
            for i in 0..pv.node_count() {
                prop_assert_eq!(
                    pv.node(treelineage_circuit::VtreeId(i)),
                    sv.node(treelineage_circuit::VtreeId(i))
                );
            }
            prop_assert_eq!(pv.root(), sv.root());
            prop_assert_eq!(parallel.structured().universe(), sequential.universe());
        }
    }

    /// `EvalSession` cache correctness: a cold compile and a cache hit
    /// return exactly the same batch results, for both session backends,
    /// and both equal the core evaluator's shared-dd answer.
    #[test]
    fn session_cache_hits_equal_cold_results(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = queries()[qi].clone();
        let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        // The oracle: match enumeration compiled through the dd engine, an
        // independent route from the session's automaton lineage.
        let expected = ProbabilityEvaluator::new(&inst, &valuation)
            .with_decomposition(td.clone())
            .query_probability(&q)
            .unwrap();
        for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
            let mut session =
                EvalSession::with_backend(EngineConfig::with_threads(2), backend);
            let qid = session.register_query(q.clone());
            let iid = session
                .register_instance_with_decomposition(inst.clone(), td.clone())
                .unwrap();
            let requests: Vec<ProbabilityRequest> = (0..3)
                .map(|_| ProbabilityRequest {
                    query: qid,
                    instance: iid,
                    valuation: valuation.clone(),
                })
                .collect();
            let cold = session.batch_probability(&requests);
            let stats_cold = session.stats();
            let warm = session.batch_probability(&requests);
            let stats_warm = session.stats();
            prop_assert_eq!(&cold, &warm, "{:?}", backend);
            // The warm batch compiled nothing new.
            prop_assert_eq!(stats_cold.lineage_misses, stats_warm.lineage_misses);
            prop_assert!(stats_warm.lineage_hits > stats_cold.lineage_hits);
            // And the answers match the dd oracle exactly.
            for result in cold {
                prop_assert_eq!(result.unwrap(), expected.clone());
            }
        }
    }
}

/// The automaton and uncertain tree of `query` on `instance` (the encoding
/// pipeline's input to the d-SDNNF compile), over decomposition `td`.
fn encoded(
    query: &UnionOfConjunctiveQueries,
    instance: &Instance,
    td: &TreeDecomposition,
) -> (
    treelineage_automata::TreeAutomaton,
    treelineage_automata::UncertainTree,
) {
    let encoding = treelineage_encoding::encode(instance, td).unwrap();
    let mut machine = treelineage_encoding::compile_ucq(
        query,
        encoding.alphabet(),
        treelineage_encoding::CompileOptions::default(),
    )
    .unwrap();
    let automaton = machine.automaton_for(encoding.tree()).unwrap();
    (automaton, encoding.tree().clone())
}

/// The `worker` labels of the `pool_tasks_total` series recorded so far.
fn pool_workers(telemetry: &Telemetry) -> Vec<String> {
    telemetry
        .snapshot()
        .counters
        .into_iter()
        .filter(|c| c.name == "pool_tasks_total")
        .flat_map(|c| c.labels.into_iter().map(|(_, worker)| worker))
        .collect()
}

/// The star of the `tables` binary's `[E-7 scaling]` rows (n = 1000: `n/2`
/// edges into the center and `n/2` out of it), over its one-bag-per-leaf
/// path decomposition.
fn star(n: u64) -> (UnionOfConjunctiveQueries, Instance, TreeDecomposition) {
    let sig = Signature::builder().relation("S", 2).build();
    let mut inst = Instance::new(sig.clone());
    for leaf in 1..=n {
        if leaf % 2 == 0 {
            inst.add_fact_by_name("S", &[0, leaf]);
        } else {
            inst.add_fact_by_name("S", &[leaf, 0]);
        }
    }
    let bags = (1..=n as usize).map(|leaf| [0, leaf].into_iter().collect());
    let td = TreeDecomposition::path_from_bags(bags.collect());
    let query = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    (query, inst, td)
}

/// A balanced tree of `2^depth` event leaves under the parity automaton's
/// combining label: unlike the encoding's caterpillar spines, nearly every
/// gate lands in a fragment, so the passes have fragment work to spread.
fn balanced_parity_tree(depth: u32) -> treelineage_automata::UncertainTree {
    use treelineage_automata::{BinaryTree, NodeId, UncertainTree};
    let mut tree = BinaryTree::new();
    let mut level: Vec<NodeId> = (0..1usize << depth).map(|_| tree.leaf(0)).collect();
    let leaves = level.clone();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| tree.internal(2, pair[0], pair[1]))
            .collect();
    }
    tree.set_root(level[0]);
    let mut u = UncertainTree::certain(tree);
    for (event, leaf) in leaves.into_iter().enumerate() {
        u.set_event(leaf, event, 1, 0);
    }
    u
}

/// Compiles `tree` at `threads` and checks the artifact gate for gate and
/// node for node, and the probability, model count and interval passes bit
/// for bit, against the sequential compile; checks that the compile
/// planned fragments and ran no pool task, and returns the
/// `pool_tasks_total` worker labels of the passes.
fn fan_out_workers(
    automaton: &treelineage_automata::TreeAutomaton,
    tree: &treelineage_automata::UncertainTree,
    threads: usize,
) -> Vec<String> {
    let sequential = compile_structured_dnnf(automaton, tree).unwrap();
    let compile_telemetry = Telemetry::enabled();
    let config = EngineConfig {
        telemetry: compile_telemetry.clone(),
        ..EngineConfig::with_threads(threads)
    };
    let parallel = compile_structured_dnnf_parallel(automaton, tree, &config).unwrap();
    let (pc, sc) = (
        parallel.structured().dnnf().circuit(),
        sequential.dnnf().circuit(),
    );
    assert_eq!(pc.size(), sc.size(), "threads={threads}");
    for id in pc.gate_ids() {
        assert_eq!(pc.gate(id), sc.gate(id), "gate {id:?}, threads={threads}");
    }
    assert_eq!(pc.output(), sc.output());
    let (pv, sv) = (parallel.structured().vtree(), sequential.vtree());
    assert_eq!(pv.node_count(), sv.node_count());
    for i in 0..pv.node_count() {
        let v = treelineage_circuit::VtreeId(i);
        assert_eq!(pv.node(v), sv.node(v));
    }
    assert_eq!(pv.root(), sv.root());
    assert!(!parallel.partition().is_empty(), "threads={threads}");
    let compile = pool_workers(&compile_telemetry);
    assert!(compile.is_empty(), "threads={threads}: {compile:?}");

    let eval_telemetry = Telemetry::enabled();
    let parallel = parallel.with_telemetry(eval_telemetry.clone());
    let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 5 + 2);
    let iv = |e: usize| treelineage_num::ErrorInterval::from_rational(&prob(e));
    let bits = |i: treelineage_num::ErrorInterval| (i.lo().to_bits(), i.hi().to_bits());
    assert_eq!(
        parallel.probability(&prob, threads),
        sequential.probability(&prob)
    );
    assert_eq!(parallel.model_count(threads), sequential.model_count());
    assert_eq!(
        bits(parallel.probability_interval(&iv, threads)),
        bits(sequential.dnnf().probability_interval(&iv)),
        "threads={threads}"
    );
    pool_workers(&eval_telemetry)
}

/// Fan-outs large enough to spawn pool workers stay byte-identical to the
/// sequential build: a balanced tree's passes run on numbered pool workers
/// rather than inline on the caller — the other side of the fan-out rule
/// from the small trees of the suites above, which all run inline. The
/// compiles of that tree and of the `[E-7 scaling]` star run on the
/// caller's thread and record their fragments.
#[test]
fn above_threshold_fan_outs_spawn_workers_and_stay_byte_identical() {
    let spawned = |workers: &[String]| workers.iter().any(|w| w != "inline");
    let (query, inst, td) = star(1000);
    let (star_automaton, star_tree) = encoded(&query, &inst, &td);
    let parity = treelineage_automata::parity_automaton(2);
    let balanced = balanced_parity_tree(11);
    for threads in [2usize, 8] {
        fan_out_workers(&star_automaton, &star_tree, threads);
        let eval = fan_out_workers(&parity, &balanced, threads);
        assert!(
            spawned(&eval),
            "balanced passes at threads={threads}: {eval:?}"
        );
    }
}

/// An `ingest_update`-sized request — a ~200-node tree, registered and
/// answered by a two-thread session — plans fragments but never spawns:
/// its compile runs on the caller's thread, and every pool task of its
/// request runs inline there too.
#[test]
fn ingest_sized_compile_and_answer_run_inline() {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..12 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    let bags = (0..12usize).map(|i| [i, i + 1].into_iter().collect());
    let td = TreeDecomposition::path_from_bags(bags.collect());
    let query = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25][i % 2]).collect();
    let valuation = ProbabilityValuation::from_f64(&inst, &probs);
    let expected = ProbabilityEvaluator::new(&inst, &valuation)
        .with_decomposition(td.clone())
        .query_probability(&query)
        .unwrap();
    for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
        let telemetry = Telemetry::enabled();
        let config = EngineConfig {
            telemetry: telemetry.clone(),
            ..EngineConfig::with_threads(2)
        };
        let mut session = EvalSession::with_backend(config, backend);
        let qid = session.register_query(query.clone());
        let iid = session
            .register_instance_with_decomposition(inst.clone(), td.clone())
            .unwrap();
        let request = ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
        };
        let got = session.batch_probability(std::slice::from_ref(&request));
        assert_eq!(got[0].as_ref().unwrap(), &expected, "{backend:?}");
        let snapshot = telemetry.snapshot();
        // The compile ran once and planned fragments...
        assert!(
            snapshot.spans.iter().any(|s| s.name == "dsdnnf_compile"),
            "{backend:?}: no compile span"
        );
        let artifact = session.lineage_artifact(qid, iid).unwrap();
        assert!(
            artifact.partition().fragments().len() >= 2,
            "{backend:?}: no fragments planned"
        );
        // ...and every pool task of the request stayed on the caller's
        // thread.
        let workers = pool_workers(&telemetry);
        assert!(
            !workers.is_empty() && workers.iter().all(|w| w == "inline"),
            "{backend:?}: {workers:?}"
        );
    }
}
