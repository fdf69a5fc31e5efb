//! Regenerates the paper's tables and dichotomy experiments as text output.
//!
//! Run with `cargo run -p treelineage-bench --bin tables --release`. Each
//! section corresponds to an experiment id of DESIGN.md §3 and a row of
//! EXPERIMENTS.md; timings are the job of the Criterion benches, this binary
//! reports the *sizes and widths* that the paper's statements are about.

use std::time::Instant;
use treelineage::prelude::*;
use treelineage_circuit::{parity_circuit, parity_formula, threshold2_circuit, threshold2_formula};
use treelineage_datalog::{
    evaluate_datalog, evaluate_ra, ra_result_formula_size, DatalogProgram, RaExpression,
};
use treelineage_graph::generators;
use treelineage_hardness as hardness;
use treelineage_instance::encodings;
use treelineage_query::intricate;
use treelineage_safe as safe;

fn main() {
    table2_upper();
    table2_lower();
    table1_and_counting();
    dichotomies();
    engine_section();
    telemetry_section();
    tracing_section();
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn table2_upper() {
    header("Table 2 (upper bounds): lineage representations on treelike instances");

    // T2-U1 / T2-U2: bounded pathwidth -> constant-width OBDD, linear circuit.
    // Compiled through the shared dd engine; the middle columns report its
    // store/cache statistics (nodes kept once under complement-edge sharing,
    // persistent op-cache hit rate), the last two the size and compile time
    // of the automaton pipeline's provenance d-SDNNF (Theorem 6.11).
    println!("\n[T2-U1/U2] bounded-pathwidth chains, query R(x),S(x,y),T(y)");
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "n",
        "facts",
        "circuit",
        "obdd width",
        "obdd size",
        "dd nodes",
        "hits",
        "misses",
        "hit%",
        "dsdnnf size",
        "dsdnnf"
    );
    for n in [25usize, 50, 100, 200, 400] {
        let mut inst = Instance::new(sig.clone());
        for i in 0..n as u64 {
            inst.add_fact_by_name("R", &[i]);
            inst.add_fact_by_name("S", &[i, i + 1]);
            inst.add_fact_by_name("T", &[i + 1]);
        }
        let builder = LineageBuilder::new(&q, &inst).unwrap();
        let circuit = builder.circuit();
        let (manager, root) = builder.dd();
        let stats = manager.stats();
        let t0 = Instant::now();
        let lineage = builder.automaton_lineage().unwrap();
        let t_dsdnnf = t0.elapsed();
        println!(
            "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>7.1}% {:>12} {:>8.2}ms",
            n,
            inst.fact_count(),
            circuit.size(),
            manager.width(root),
            manager.size(root),
            stats.node_count,
            stats.op_cache_hits,
            stats.op_cache_misses,
            stats.hit_rate_percent(),
            lineage.size(),
            t_dsdnnf.as_secs_f64() * 1e3
        );
    }

    // T2-U3/U4/U5: bounded treewidth -> polynomial OBDD, linear circuit,
    // d-DNNF — plus the automaton pipeline's provenance d-SDNNF size and its
    // compile / one-pass probability evaluation times.
    println!("\n[T2-U3/U4/U5] random partial 2-trees, query S(x,y),S(y,z) with x != z");
    let sig2 = Signature::builder()
        .relation("S", 2)
        .relation("R", 2)
        .build();
    let q2 = parse_query(&sig2, "S(x, y), S(y, z), x != z").unwrap();
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8} {:>12} {:>12} {:>12}",
        "n",
        "facts",
        "circuit",
        "obdd width",
        "obdd size",
        "ddnnf size",
        "dd nodes",
        "hit%",
        "dsdnnf size",
        "compile",
        "eval pass"
    );
    for n in [20usize, 40, 80, 160] {
        let inst = encodings::random_treelike_instance(&sig2, n, 2, 7);
        let builder = LineageBuilder::new(&q2, &inst).unwrap();
        let (manager, root) = builder.dd();
        let stats = manager.stats();
        let t0 = Instant::now();
        let lineage = builder.automaton_lineage().unwrap();
        let t_compile = t0.elapsed();
        let t1 = Instant::now();
        let _ = lineage.probability(&treelineage_bench::dyadic_prob);
        let t_eval = t1.elapsed();
        println!(
            "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>7.1}% {:>12} {:>10.2}ms {:>10.2}ms",
            n,
            inst.fact_count(),
            builder.circuit().size(),
            manager.width(root),
            manager.size(root),
            builder.ddnnf().size(),
            stats.node_count,
            stats.hit_rate_percent(),
            lineage.size(),
            t_compile.as_secs_f64() * 1e3,
            t_eval.as_secs_f64() * 1e3
        );
    }

    // T2-U6: inversion-free UCQ on arbitrary instances via unfolding.
    println!("\n[T2-U6] inversion-free UCQ R(x),S(x,y) on dense instances: OBDD width before/after unfolding");
    let sig3 = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .build();
    let q3 = parse_query(&sig3, "R(x), S(x, y)").unwrap();
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12}",
        "n", "facts", "width (orig)", "width (unfold)", "tree-depth"
    );
    for n in [3u64, 6, 9, 12] {
        let mut inst = Instance::new(sig3.clone());
        for a in 1..=n {
            inst.add_fact_by_name("R", &[a]);
            for c in 1..=4u64 {
                inst.add_fact_by_name("S", &[a, n + c]);
            }
        }
        let width_orig = {
            let (manager, root) = LineageBuilder::new(&q3, &inst).unwrap().dd();
            manager.width(root)
        };
        let unfolding = safe::unfold_for_query(&q3, &inst).unwrap();
        let width_unf = {
            let (manager, root) = LineageBuilder::new(&q3, &unfolding.instance).unwrap().dd();
            manager.width(root)
        };
        println!(
            "{:>8} {:>10} {:>14} {:>14} {:>12}",
            n,
            inst.fact_count(),
            width_orig,
            width_unf,
            unfolding.tree_depth
        );
    }

    // T2-U7/U8: positive RA formulas and Datalog circuits on any instance.
    println!("\n[T2-U7/U8] positive RA lineage formulas and Datalog provenance circuits (paths)");
    let esig = Signature::builder().relation("E", 2).build();
    let e = esig.relation_by_name("E").unwrap();
    println!(
        "{:>8} {:>14} {:>16} {:>18}",
        "n", "RA formula", "Datalog circuit", "TC formula (0,n-1)"
    );
    for n in [6usize, 8, 10, 12] {
        let inst = encodings::graph_instance(&generators::path_graph(n), &esig, e);
        let expr = RaExpression::Project {
            input: Box::new(RaExpression::Join {
                left: Box::new(RaExpression::Relation(e)),
                right: Box::new(RaExpression::Relation(e)),
                on: vec![(1, 0)],
            }),
            columns: vec![0, 3],
        };
        let ra_size = ra_result_formula_size(&evaluate_ra(&expr, &inst));
        let program = DatalogProgram::transitive_closure(e);
        let provenance = evaluate_datalog(&program, &inst);
        let formula = treelineage_datalog::datalog_lineage_formula(
            &provenance,
            0,
            &vec![Element(0), Element(n as u64 - 1)],
            10_000_000,
        )
        .unwrap();
        println!(
            "{:>8} {:>14} {:>16} {:>18}",
            n,
            ra_size,
            provenance.circuit.size(),
            formula.node_size()
        );
    }
}

fn table2_lower() {
    header("Table 2 (lower bounds): formula representations (Section 7)");
    println!("\n[T2-L1/L2/L3] circuit vs formula sizes for the lineage families");
    println!(
        "{:>6} {:>14} {:>16} {:>16} {:>14} {:>16}",
        "n", "thr2 circuit", "thr2 formula", "thr2 naive", "parity circuit", "parity formula"
    );
    for n in [16usize, 32, 64, 128] {
        let vars: Vec<usize> = (0..n).collect();
        println!(
            "{:>6} {:>14} {:>16} {:>16} {:>14} {:>16}",
            n,
            threshold2_circuit(&vars).size(),
            threshold2_formula(&vars).leaf_size(),
            treelineage_circuit::threshold2_formula_naive(&vars).leaf_size(),
            parity_circuit(&vars).size(),
            parity_formula(&vars).leaf_size()
        );
    }
    println!(
        "\n(reference growth rates: thr2 formula ~ n log n vs Omega(n log log n) lower bound;"
    );
    println!(" parity formula = n^2 vs Omega(n^2) lower bound; circuits stay linear)");

    println!("\n[T2-L4] Datalog: transitive-closure provenance, circuit vs unfolded formula");
    let esig = Signature::builder().relation("E", 2).build();
    let e = esig.relation_by_name("E").unwrap();
    println!("{:>6} {:>16} {:>18}", "n", "circuit gates", "formula nodes");
    for n in [4usize, 6, 8, 10] {
        let inst = encodings::graph_instance(&generators::path_graph(n), &esig, e);
        let provenance = evaluate_datalog(&DatalogProgram::transitive_closure(e), &inst);
        let formula = treelineage_datalog::datalog_lineage_formula(
            &provenance,
            0,
            &vec![Element(0), Element(n as u64 - 1)],
            10_000_000,
        )
        .unwrap();
        println!(
            "{:>6} {:>16} {:>18}",
            n,
            provenance.circuit.size(),
            formula.node_size()
        );
    }
}

fn table1_and_counting() {
    header(
        "Table 1 / Theorems 5.2, 5.7: evaluation and counting on bounded vs unbounded treewidth",
    );
    println!(
        "\n[T1-A] model checking and probability on partial 2-trees (times in ms, single run)"
    );
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("R", 2)
        .build();
    let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    println!(
        "{:>8} {:>10} {:>14} {:>16}",
        "n", "facts", "model check", "probability"
    );
    for n in [50usize, 100, 200, 400] {
        let inst = encodings::random_treelike_instance(&sig, n, 2, 11);
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let t0 = Instant::now();
        let _ = treelineage::model_check(&q, &inst);
        let t_mc = t0.elapsed();
        let t1 = Instant::now();
        let _ = ProbabilityEvaluator::new(&inst, &valuation)
            .query_probability(&q)
            .unwrap();
        let t_prob = t1.elapsed();
        println!(
            "{:>8} {:>10} {:>12.2}ms {:>14.2}ms",
            n,
            inst.fact_count(),
            t_mc.as_secs_f64() * 1e3,
            t_prob.as_secs_f64() * 1e3
        );
    }

    println!(
        "\n[T1-B] match counting (selection subsets with an internal edge) vs independent-set DP"
    );
    let selsig = Signature::builder()
        .relation("E", 2)
        .relation("Sel", 1)
        .build();
    let e = selsig.relation_by_name("E").unwrap();
    let qc = parse_query(&selsig, "E(x, y), Sel(x), Sel(y)").unwrap();
    println!(
        "{:>8} {:>22} {:>22}",
        "n", "non-independent sets", "independent sets"
    );
    for n in [6usize, 10, 14, 18] {
        let graph = generators::path_graph(n);
        let inst = encodings::graph_instance(&graph, &selsig, e);
        let counter = MatchCounter::new(&qc, &inst, vec!["Sel"]);
        let bad = counter.count().unwrap();
        let independent = treelineage_graph::counting::count_independent_sets(&graph);
        println!(
            "{:>8} {:>22} {:>22}",
            n,
            bad.to_decimal_string(),
            independent.to_decimal_string()
        );
    }
}

fn dichotomies() {
    header("Dichotomy experiments (Theorems 4.2, 8.1, 8.7, 9.7)");

    println!("\n[D-4.2b] #matchings of 3-regular (planar) graphs via probability of q_p (all-1/2 valuation)");
    println!(
        "{:>20} {:>8} {:>18} {:>18}",
        "graph", "edges", "from probability", "direct DP"
    );
    for (name, graph) in [
        ("prism CL_3", generators::circular_ladder_graph(3)),
        ("prism CL_4", generators::circular_ladder_graph(4)),
        ("prism CL_5", generators::circular_ladder_graph(5)),
        ("moebius ML_4", generators::moebius_ladder_graph(4)),
    ] {
        let result = hardness::matching_reduction(&graph);
        println!(
            "{:>20} {:>8} {:>18} {:>18}",
            name,
            graph.edge_count(),
            result.matchings_from_probability.to_decimal_string(),
            result.matchings_direct.to_decimal_string()
        );
    }

    println!("\n[D-8.1] OBDD width of q_p: grids (unbounded treewidth) vs chains (treewidth 1)");
    println!("{:>14} {:>10} {:>12}", "instance", "facts", "obdd width");
    for n in [2usize, 3, 4, 5] {
        let (w, _) = hardness::obdd_width_of_qp_on_grid(n);
        println!(
            "{:>14} {:>10} {:>12}",
            format!("{n}x{n} grid"),
            2 * n * (n - 1),
            w
        );
    }
    for len in [20usize, 40, 80] {
        let (w, _) = hardness::obdd_width_of_qp_on_chain(len);
        println!("{:>14} {:>10} {:>12}", format!("chain {len}"), len, w);
    }

    println!("\n[D-8.7] intricacy classification (Lemma 8.6)");
    let single = Signature::builder().relation("S", 2).build();
    let rst = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let qp = hardness::qp(&single);
    let unsafe_q = parse_query(&rst, "R(x), S(x, y), T(y)").unwrap();
    let cq_neq = parse_query(&single, "S(x, y), S(y, z), x != z").unwrap();
    println!(
        "  q_p intricate (0-intricate): {}",
        intricate::is_n_intricate(&qp, 0)
    );
    println!(
        "  R(x),S(x,y),T(y) intricate:  {}",
        intricate::is_intricate(&unsafe_q)
    );
    println!(
        "  connected CQ!= intricate:    {}",
        intricate::is_intricate(&cq_neq)
    );

    println!("\n[D-8.7b/8.9] non-intricate & homomorphism-closed queries on unbounded-treewidth families");
    println!("{:>26} {:>6} {:>12}", "family", "n", "obdd width");
    for n in [2usize, 4, 6] {
        let (w, _) = hardness::obdd_width_of_unsafe_query_on_s_grid(n);
        println!("{:>26} {:>6} {:>12}", "R,S,T on S-grid", n, w);
    }
    for n in [2usize, 4, 6] {
        let (w, _) = hardness::obdd_width_of_ucq_on_bipartite(n);
        println!("{:>26} {:>6} {:>12}", "UCQ on complete bipartite", n, w);
    }

    println!("\n[D-8.10] disconnected q_d on grids");
    println!("{:>10} {:>12}", "grid", "obdd width");
    for n in [2usize, 3, 4] {
        let (w, _) = hardness::obdd_width_of_qd_on_grid(n);
        println!("{:>10} {:>12}", format!("{n}x{n}"), w);
    }

    println!("\n[D-9.7] unfolding of inversion-free UCQs (see T2-U6 above for widths/tree-depth)");
    let sig3 = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .build();
    let q3 = parse_query(&sig3, "R(x), S(x, y)").unwrap();
    println!(
        "  R(x),S(x,y) inversion-free:      {}",
        safe::is_inversion_free(&q3)
    );
    let rst_q = parse_query(&rst, "R(x), S(x, y), T(y)").unwrap();
    println!(
        "  R(x),S(x,y),T(y) inversion-free: {}",
        safe::is_inversion_free(&rst_q)
    );
}

/// E-7: the parallel engine, routed through the same `with_engine_config`
/// knob every entry point shares. `TREELINEAGE_THREADS` (default 1) sets
/// the worker count; results are bit-identical at every setting — this
/// section prints the artifact sizes and a wall-clock so CI exercises the
/// parallel path end to end, while the scaling numbers proper live in the
/// `engine_scaling` Criterion bench (EXPERIMENTS.md §E-7).
fn engine_section() {
    let threads: usize = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    header(&format!("E-7: parallel engine (threads = {threads})"));
    let config = EngineConfig::with_threads(threads);

    let sig = Signature::builder().relation("S", 2).build();
    let q = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "star n", "facts", "dsdnnf size", "fragments", "compile", "eval"
    );
    for n in [500usize, 2000, 4000] {
        let mut inst = Instance::new(sig.clone());
        for leaf in 1..=n as u64 {
            if leaf % 2 == 0 {
                inst.add_fact_by_name("S", &[0, leaf]);
            } else {
                inst.add_fact_by_name("S", &[leaf, 0]);
            }
        }
        let bags: Vec<std::collections::BTreeSet<usize>> = (1..=n)
            .map(|leaf| [0usize, leaf].into_iter().collect())
            .collect();
        let td = TreeDecomposition::path_from_bags(bags);
        let t0 = Instant::now();
        let lineage = LineageBuilder::new(&q, &inst)
            .unwrap()
            .with_decomposition(td)
            .unwrap()
            .with_engine_config(config.clone())
            .automaton_lineage()
            .unwrap();
        let t_compile = t0.elapsed();
        let t1 = Instant::now();
        let _ = lineage.model_count();
        let t_eval = t1.elapsed();
        println!(
            "{:>8} {:>10} {:>12} {:>10} {:>10.2}ms {:>10.2}ms",
            n,
            inst.fact_count(),
            lineage.size(),
            lineage.parallel().partition().fragments().len(),
            t_compile.as_secs_f64() * 1e3,
            t_eval.as_secs_f64() * 1e3
        );
    }

    // Batched serving: one EvalSession, many repeated requests — the
    // compile happens once and every further request is a cache hit plus
    // one linear pass.
    let mut session = EvalSession::with_backend(config, SessionBackend::Automaton);
    let rst = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&rst, "R(x), S(x, y), T(y)").unwrap();
    let mut inst = Instance::new(rst.clone());
    for i in 0..200u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    let qid = session.register_query(q);
    let iid = session.register_instance(inst);
    let requests: Vec<_> = (0..32).map(|_| (qid, iid)).collect();
    let t0 = Instant::now();
    let cold = session.batch_model_count(&requests);
    let t_cold = t0.elapsed();
    let t1 = Instant::now();
    let warm = session.batch_model_count(&requests);
    let t_warm = t1.elapsed();
    let stats = session.stats();
    println!(
        "\n  EvalSession: {} model-count requests — cold batch {:.2}ms ({} compile, \
         batch deduplicated to 1 evaluation), warm batch {:.2}ms ({} cache hit)",
        cold.len(),
        t_cold.as_secs_f64() * 1e3,
        stats.lineage_misses,
        t_warm.as_secs_f64() * 1e3,
        stats.lineage_hits
    );
    assert!(cold.iter().all(|c| c.is_ok()));
    assert_eq!(cold, warm);
}

/// E-9: the unified telemetry layer. One instrumented FloatFirst session
/// serves a mixed batch (exact probabilities, certified-float thresholds,
/// model counts), and the merged `EvalSession::metrics()` snapshot is
/// printed three ways: stage spans, per-(kind, tier) request counters with
/// cache occupancy, and excerpts of the JSON-lines / Prometheus exports.
/// The byte-identity guarantee (telemetry on == telemetry off, gate for
/// gate) is pinned by `tests/telemetry_differential.rs`; this section is
/// the human-readable view CI logs.
fn telemetry_section() {
    use treelineage::{ProbabilityRequest, ThresholdRequest};

    let threads: usize = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    header(&format!("E-9: unified telemetry (threads = {threads})"));
    let config = EngineConfig {
        telemetry: Telemetry::enabled(),
        ..EngineConfig::with_threads(threads)
    };

    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let mut inst = Instance::new(sig.clone());
    for i in 0..100u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }

    let mut session = EvalSession::with_backend(config, SessionBackend::FloatFirst);
    let qid = session.register_query(q);
    let iid = session.register_instance(inst.clone());
    let valuation = ProbabilityValuation::from_probabilities(
        &inst,
        (0..inst.fact_count())
            .map(|f| Rational::from_ratio_u64(1, (f as u64 % 3) + 2))
            .collect(),
    );
    let probability_requests: Vec<ProbabilityRequest> = (0..8)
        .map(|_| ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
        })
        .collect();
    let threshold_requests: Vec<ThresholdRequest> = (0..8)
        .map(|k| ThresholdRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
            threshold: Rational::from_ratio_u64(1 + k % 3, 1000),
        })
        .collect();
    assert!(session
        .batch_probability(&probability_requests)
        .iter()
        .all(|r| r.is_ok()));
    assert!(session
        .batch_probability_f64(&probability_requests)
        .iter()
        .all(|r| r.is_ok()));
    assert!(session
        .batch_threshold(&threshold_requests)
        .iter()
        .all(|r| r.is_ok()));
    assert!(session
        .batch_model_count(&[(qid, iid)])
        .iter()
        .all(|r| r.is_ok()));

    let snap = session.metrics();
    println!("\n  pipeline stage spans (one warm FloatFirst session):");
    println!(
        "  {:>24} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "min ms", "max ms"
    );
    for span in &snap.spans {
        println!(
            "  {:>24} {:>7} {:>12.3} {:>12.3} {:>12.3}",
            span.name,
            span.count,
            span.total_ns as f64 / 1e6,
            span.min_ns as f64 / 1e6,
            span.max_ns as f64 / 1e6
        );
    }

    println!("\n  requests by (kind, tier):");
    for c in snap.counters.iter().filter(|c| c.name == "requests_total") {
        let label = |key: &str| {
            c.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        println!(
            "  {:>24} {:>12} {:>7}",
            label("kind"),
            label("tier"),
            c.value
        );
    }
    println!(
        "  span ring: {} events dropped under capacity pressure",
        snap.counter("telemetry_dropped_span_events_total", &[])
            .unwrap_or(0)
    );

    println!("\n  request latency quantiles by (kind, tier):");
    for h in snap
        .histograms
        .iter()
        .filter(|h| h.name == "request_latency_ns")
    {
        let label = |key: &str| {
            h.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        let quantile = |q: f64| match h.quantile(q) {
            Some(u64::MAX) => "+Inf".to_string(),
            Some(bound) => format!("{:.3}ms", bound as f64 / 1e6),
            None => "-".to_string(),
        };
        println!(
            "  {:>24} {:>12} p50<={:>10} p95<={:>10} p99<={:>10}",
            label("kind"),
            label("tier"),
            quantile(0.50),
            quantile(0.95),
            quantile(0.99)
        );
    }

    let occupancy = session.cache_occupancy();
    println!(
        "  caches: lineage {}/{}, query machines {}/{}, encodings {}",
        occupancy.lineage_entries,
        occupancy.lineage_capacity,
        occupancy.machine_entries,
        occupancy.machine_capacity,
        occupancy.encodings
    );

    let json = snap.to_json_lines();
    let prometheus = snap.to_prometheus();
    println!(
        "\n  exports: {} JSON lines, {} Prometheus lines; first of each:",
        json.lines().count(),
        prometheus.lines().count()
    );
    for line in json.lines().take(2) {
        println!("    {line}");
    }
    for line in prometheus.lines().take(3) {
        println!("    {line}");
    }
}

/// E-10: request-scoped tracing. One instrumented session serves a cold
/// `explain()` and a warm batch; the section prints the per-request
/// EXPLAIN report (stable JSON), the flight recorder's slowest retained
/// traces, and the head of the Chrome-trace/Perfetto export of the drained
/// span ring — the artifact that opens directly in ui.perfetto.dev. The
/// cross-thread parenting contract (one connected trace per request at any
/// thread count) is pinned by `tests/tracing_differential.rs`.
fn tracing_section() {
    use treelineage::ProbabilityRequest;
    use treelineage_engine::to_chrome_trace;

    let threads: usize = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    header(&format!(
        "E-10: request-scoped tracing (threads = {threads})"
    ));
    let telemetry = Telemetry::enabled();
    let config = EngineConfig {
        telemetry: telemetry.clone(),
        // Retain every request of this small demo in the flight recorder.
        flight_recorder_threshold_ns: 0,
        flight_recorder_capacity: 4,
        ..EngineConfig::with_threads(threads)
    };

    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
    let mut inst = Instance::new(sig);
    for i in 0..60u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    let mut session = EvalSession::with_backend(config, SessionBackend::FloatFirst);
    let qid = session.register_query(q);
    let iid = session.register_instance(inst.clone());
    let valuation = ProbabilityValuation::from_probabilities(
        &inst,
        (0..inst.fact_count())
            .map(|f| Rational::from_ratio_u64(1, (f as u64 % 3) + 2))
            .collect(),
    );
    let request = ProbabilityRequest {
        query: qid,
        instance: iid,
        valuation: valuation.clone(),
    };

    let cold = session.explain(&request).expect("explain serves");
    println!("\n  cold explain() (compiles, then reports where the time went):");
    println!("    {}", cold.to_json());
    let warm = session.explain(&request).expect("explain serves warm");
    println!("  warm explain() (every cache layer resident):");
    println!("    {}", warm.to_json());

    let batch: Vec<ProbabilityRequest> = (0..8).map(|_| request.clone()).collect();
    assert!(session
        .batch_probability_f64(&batch)
        .iter()
        .all(|r| r.is_ok()));

    println!("\n  flight recorder (slowest retained requests):");
    for slow in session.slow_requests() {
        println!(
            "    {:>15} tier={:<11} {:>10.3}ms trace={} ({} spans kept)",
            slow.kind,
            slow.tier.as_str(),
            slow.duration_ns as f64 / 1e6,
            slow.trace,
            slow.spans.len()
        );
    }

    let events = telemetry.drain_events();
    let rendered = to_chrome_trace(&events);
    println!(
        "\n  Perfetto export: {} span events, {} bytes of trace_events JSON \
         (open in ui.perfetto.dev); head:",
        events.len(),
        rendered.len()
    );
    let head: String = rendered.chars().take(160).collect();
    println!("    {head}...");
}
