//! Regenerates the paper's tables and dichotomy experiments as text output.
//!
//! Run with `cargo run -p treelineage-bench --bin tables --release`. Each
//! section corresponds to an experiment id of DESIGN.md §3 and a row of
//! EXPERIMENTS.md. The binary reports the *sizes and widths* that the
//! paper's statements are about. Columns of rows marked "median of 3" are
//! timed by [`median_ms`] (one warm-up, then the median of three runs): the
//! two compile routes (`[E-6.3]`), compile and model count per thread count
//! (`[E-7 scaling]`) and the Karp–Luby fallback (`[E-8]`); the stages of
//! one warm exact pass (`[E-12 layout]`) take the median of 501 calls. The
//! other wall-clock columns are single runs, for orientation only. Serving
//! is timed end to end by `perfbench` (the workloads of `BENCHMARK.json`).

use std::collections::BTreeSet;
use std::time::Instant;
use treelineage::karp_luby_probability;
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
    pipeline_section();
    engine_section();
    approx_section();
    telemetry_section();
    tracing_section();
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The worker count of the engine sections: `TREELINEAGE_THREADS`, default 1.
fn threads() -> usize {
    std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// `f`'s value and wall time in ms: one warm-up call, whose value is
/// returned, then the median of three timed calls (dropping each value
/// outside the timer).
fn median_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let value = f();
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let run = f();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(run);
            ms
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    (value, runs[1])
}

/// The chain query `R(x), S(x, y), T(y)` and the chain instance
/// `R(i), S(i, i+1), T(i+1)` for `i < n` (pathwidth 1).
fn chain(n: usize) -> (UnionOfConjunctiveQueries, Instance) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    (parse_query(&sig, "R(x), S(x, y), T(y)").unwrap(), inst)
}

/// The chain's known width-1 path decomposition: bags `{i, i+1}`.
fn chain_decomposition(n: usize) -> TreeDecomposition {
    let bags: Vec<BTreeSet<usize>> = (0..n).map(|i| [i, i + 1].into_iter().collect()).collect();
    TreeDecomposition::path_from_bags(bags)
}

/// The star join's signature (`S/2`) and query `S(x, y), S(y, z), x != z`.
fn star_query() -> (Signature, UnionOfConjunctiveQueries) {
    let sig = Signature::builder().relation("S", 2).build();
    let query = parse_query(&sig, "S(x, y), S(y, z), x != z").unwrap();
    (sig, query)
}

/// A star of treewidth 1 over relation `S` of `sig`: `n/2` edges into the
/// center and `n/2` out of it, so the star join has ~`n²/4` matches
/// through the center.
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

/// Dyadic per-fact probabilities for the d-SDNNF evaluation column.
/// Power-of-two denominators keep exact arithmetic cheap at hundreds of
/// facts: common denominators never need large gcds.
fn dyadic_prob(v: usize) -> Rational {
    let (num, den) = [(1u64, 2u64), (1, 4), (3, 4), (1, 8), (5, 8)][v % 5];
    Rational::from_ratio_u64(num, den)
}

fn table2_upper() {
    header("Table 2 (upper bounds): lineage representations on treelike instances");

    // T2-U1 / T2-U2: bounded pathwidth -> constant-width OBDD, linear circuit.
    // Compiled through the shared dd engine; the middle columns report its
    // store/cache statistics (nodes kept once under complement-edge sharing,
    // persistent op-cache hit rate), the last two the size and compile time
    // of the automaton pipeline's provenance d-SDNNF (Theorem 6.11).
    println!("\n[T2-U1/U2] bounded-pathwidth chains, query R(x),S(x,y),T(y)");
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
    for n in [25, 50, 100, 200, 400] {
        let (q, inst) = chain(n);
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
        let _ = lineage.probability(&dyadic_prob, 1);
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

    // Theorem 3.2's direct algorithm: message passing over a decomposition
    // of the lineage circuit that covers every gate family.
    let (q, inst) = chain(6);
    let valuation = ProbabilityValuation::from_probabilities(
        &inst,
        (0..inst.fact_count()).map(dyadic_prob).collect(),
    );
    let circuit = LineageBuilder::new(&q, &inst).unwrap().circuit();
    let (width, td) = circuit.covering_decomposition();
    let p = treelineage_circuit::probability_message_passing(&circuit, &td, &dyadic_prob).unwrap();
    assert_eq!(
        p,
        ProbabilityEvaluator::new(&inst, &valuation)
            .query_probability(&q)
            .unwrap()
    );
    println!(
        "\n[T1-A mp] Theorem 3.2 message passing, chain n = 6 ({} facts): covering width {width}, \
         probability {p}",
        inst.fact_count()
    );

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

/// E-6.3: the two compile routes head to head, on each family's known
/// width-1 decomposition. Match enumeration compiles every query match into
/// the shared dd engine and runs only up to the family's cliff (past it the
/// star's ~n²/4 matches make it minutes-slow); the automaton pipeline
/// (`LineageBuilder::automaton_lineage`) never materializes a match. The shape to
/// read: automaton compile at star n = 4,000 is faster than enumeration at
/// n = 400.
fn pipeline_section() {
    header("E-6.3: match enumeration vs the automaton pipeline");
    println!("\n[E-6.3] compile routes on known decompositions (ms, median of 3 after a warm-up)");
    println!(
        "{:>8} {:>6} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "family", "n", "facts", "obdd size", "match enum", "dsdnnf size", "automaton"
    );
    let (star_sig, star_q) = star_query();
    let mut cases = Vec::new();
    for n in [400, 4000] {
        let inst = star_instance(&star_sig, n);
        cases.push(("star", n, 400, star_q.clone(), inst, star_decomposition(n)));
    }
    for n in [100, 1000] {
        let (q, inst) = chain(n);
        cases.push(("chain", n, 1000, q, inst, chain_decomposition(n)));
    }
    for (family, n, cliff, q, inst, td) in &cases {
        let builder = || {
            LineageBuilder::new(q, inst)
                .unwrap()
                .with_decomposition(td.clone())
                .unwrap()
        };
        let (obdd_size, t_enum) = match (n <= cliff).then(|| median_ms(|| builder().dd())) {
            Some(((manager, root), ms)) => (manager.size(root).to_string(), format!("{ms:.2}ms")),
            None => ("-".to_string(), "-".to_string()),
        };
        let (lineage, t_automaton) = median_ms(|| builder().automaton_lineage().unwrap());
        println!(
            "{:>8} {:>6} {:>8} {:>10} {:>12} {:>12} {:>10.2}ms",
            family,
            n,
            inst.fact_count(),
            obdd_size,
            t_enum,
            lineage.size(),
            t_automaton
        );
    }
}

/// E-7: the parallel engine, routed through the same `with_engine_config`
/// knob every entry point shares. `TREELINEAGE_THREADS` (default 1) sets
/// the worker count of the session; results are bit-identical at every
/// setting. The `[E-7 scaling]` rows sweep a fixed set of thread counts
/// instead (EXPERIMENTS.md §E-7).
fn engine_section() {
    let threads = threads();
    header(&format!("E-7: parallel engine (threads = {threads})"));
    let config = EngineConfig::with_threads(threads);

    scaling_rows();
    memo_rows();
    layout_rows();

    // Batched serving: one EvalSession, many repeated requests — the
    // compile happens once and every further request is a cache hit plus
    // one linear pass.
    let mut session = EvalSession::with_backend(config, SessionBackend::Automaton);
    let (q, inst) = chain(200);
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

/// E-7 scaling rows: automaton-backend compile (encode → query automaton →
/// provenance d-SDNNF) and the integer model-count pass at a fixed sweep of
/// thread counts, which does not read `TREELINEAGE_THREADS`, so every
/// column but the timings is the same on every host. Gates and the count's
/// bit length do not move with `t`; the fragment count does (the plan's
/// grain follows the thread count). The grid's query saturates at 4,187
/// deterministic states, past the default budget, so its rows raise
/// `EngineConfig::state_budget`. A fan-out spawns workers only for work
/// that pays (`pool::workers_for`): at t = 2 the compiles of all three
/// shapes and the star 4,000 and grid passes spawn a second worker, while
/// the star 1,000 pass (1,484 gates in its fragments) runs inline.
fn scaling_rows() {
    println!(
        "\n[E-7 scaling] compile and model-count pass per thread count \
         (ms, median of 3 after a warm-up)"
    );
    println!(
        "{:>10} {:>3} {:>8} {:>10} {:>11} {:>12} {:>12}",
        "shape", "t", "gates", "fragments", "count bits", "compile", "count pass"
    );
    let (sig, q) = star_query();
    let s = sig.relation_by_name("S").unwrap();
    let grid_config = EngineConfig {
        state_budget: 16_384,
        ..EngineConfig::default()
    };
    let shapes = [
        (
            "star 1000",
            star_instance(&sig, 1000),
            Some(star_decomposition(1000)),
            EngineConfig::default(),
        ),
        (
            "star 4000",
            star_instance(&sig, 4000),
            Some(star_decomposition(4000)),
            EngineConfig::default(),
        ),
        (
            "grid 3x60",
            encodings::grid_instance(&sig, s, 3, 60),
            None,
            grid_config,
        ),
    ];
    for (shape, inst, td, base) in &shapes {
        for threads in [1, 2, 4, 8] {
            let config = EngineConfig {
                threads,
                ..base.clone()
            };
            let (lineage, t_compile) = median_ms(|| {
                let mut builder = LineageBuilder::new(&q, inst)
                    .unwrap()
                    .with_engine_config(config.clone());
                if let Some(td) = td {
                    builder = builder.with_decomposition(td.clone()).unwrap();
                }
                builder.automaton_lineage().unwrap()
            });
            let (count, t_count) = median_ms(|| lineage.model_count(threads));
            println!(
                "{:>10} {:>3} {:>8} {:>10} {:>11} {:>10.2}ms {:>10.2}ms",
                shape,
                threads,
                lineage.size(),
                lineage.partition().fragments().len(),
                count.bits(),
                t_compile,
                t_count
            );
        }
    }
}

/// E-7 memo rows: per-instance compile against the query machine's memo
/// size, on the serving route (the machine's run, then the d-SDNNF builder
/// on it). 200 seeded labelled grids (3×3 and 3×4, query `S(x, y), L(y)`)
/// run once through one shared machine, whose memo grows with every
/// instance, and once through a fresh machine per instance. Both rows run
/// only the steps each tree can take, so their per-instance run and
/// compile times should be close; the memo column is the shared machine's
/// final size, or the largest fresh one.
fn memo_rows() {
    use treelineage_automata::{NodeId, StructuredBuilder};
    use treelineage_encoding::{compile_ucq, encode, CompileOptions, LiveStates};

    const INSTANCES: u64 = 200;
    println!(
        "\n[E-7 memo] {INSTANCES} seeded labelled grids 3x3/3x4, query S(x,y),L(y); \
         ms per instance over the second half"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "machine", "memo states", "live max", "run steps", "run", "compile"
    );
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("L", 1)
        .build();
    let (s, l) = (
        sig.relation_by_name("S").unwrap(),
        sig.relation_by_name("L").unwrap(),
    );
    let query = parse_query(&sig, "S(x, y), L(y)").unwrap();
    let encodings: Vec<_> = (0..INSTANCES)
        .map(|seed| {
            let inst =
                encodings::labelled_grid_instance(&sig, s, l, 3, 3 + seed as usize % 2, seed);
            let (graph, _) = inst.gaifman_graph();
            encode(
                &inst,
                &treelineage_graph::treewidth::treewidth_upper_bound(&graph).1,
            )
            .unwrap()
        })
        .collect();
    for shared in [true, false] {
        let mut machines = std::collections::BTreeMap::new();
        let (mut memo, mut live_max, mut steps) = (0, 0, 0);
        let (mut t_run, mut t_compile) = (0.0, 0.0);
        for (k, encoding) in encodings.iter().enumerate() {
            if !shared {
                machines.clear();
            }
            let machine = machines
                .entry(encoding.alphabet().width())
                .or_insert_with(|| {
                    compile_ucq(&query, encoding.alphabet(), CompileOptions::default()).unwrap()
                });
            let t0 = Instant::now();
            let run = machine.run(encoding.tree()).unwrap();
            let t1 = Instant::now();
            let lineage = StructuredBuilder::new(&run, encoding.tree())
                .and_then(|builder| builder.compile(|_, _, _| None))
                .unwrap();
            let t2 = Instant::now();
            assert!(lineage.size() > 0);
            memo = memo.max(machine.state_count());
            live_max = live_max.max(LiveStates::of(&run).max);
            steps += (0..run.node_count())
                .map(|node| run.steps(NodeId(node)).len())
                .sum::<usize>();
            if k >= encodings.len() / 2 {
                t_run += (t1 - t0).as_secs_f64();
                t_compile += (t2 - t1).as_secs_f64();
            }
        }
        let timed = (encodings.len() - encodings.len() / 2) as f64;
        println!(
            "{:>8} {:>12} {:>10} {:>12} {:>10.3}ms {:>10.3}ms",
            if shared { "shared" } else { "fresh" },
            memo,
            live_max,
            steps / encodings.len(),
            t_run / timed * 1e3,
            t_compile / timed * 1e3
        );
    }
}

/// E-12 layout rows: the exact passes' arena laid out from the scope hull,
/// on the four shapes perfbench's `serve_exact` serves (compiled by a
/// session, as served). `limbs` is the hull layout's arena size under
/// mixed-denominator probabilities and `scope sum` the test oracle
/// `Σ_g width(Σ_{v ∈ scope(g)} e_v)` over `Circuit::gate_dependencies`:
/// equal, because the construction's gate scopes are runs of consecutive
/// ranks. The stages are timed apart, median of 501 warm calls each:
/// the hull (built once per lineage, on its first exact pass), the weight
/// table in rank order, the layout, and a whole warm
/// `ParallelDnnf::probability` call, whose sweep and final reduction are
/// the rest.
fn layout_rows() {
    use std::sync::Arc;
    use treelineage_circuit::{LimbArena, ScopeHull};
    use treelineage_engine::ParallelDnnf;
    use treelineage_num::limbs::{self, IntWeights};

    fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
        let mut runs: Vec<f64> = (0..501)
            .map(|_| {
                let t0 = Instant::now();
                let out = f();
                let us = t0.elapsed().as_secs_f64() * 1e6;
                drop(out);
                us
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    }

    println!(
        "\n[E-12 layout] exact-pass arena from the scope hull on the serve_exact shapes \
         (µs, median of 501 warm calls)"
    );
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shape",
        "gates",
        "events",
        "limbs",
        "scope sum",
        "hull",
        "weights",
        "layout",
        "pass",
        "rest"
    );
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("L", 1)
        .build();
    let star = |n: u64| {
        let mut inst = Instance::new(sig.clone());
        for i in 1..=n {
            inst.add_fact_by_name("S", &[0, i]);
            inst.add_fact_by_name("L", &[i]);
        }
        (parse_query(&sig, "S(x, y), L(y)").unwrap(), inst)
    };
    let grid_sig = Signature::builder().relation("S", 2).build();
    let grid = encodings::grid_instance(&grid_sig, grid_sig.relation_by_name("S").unwrap(), 4, 4);
    let shapes = [
        ("chain16", chain(16)),
        ("chain32", chain(32)),
        ("star32", star(32)),
        (
            "grid4x4",
            (parse_query(&grid_sig, "S(x, y)").unwrap(), grid),
        ),
    ];
    for (name, (query, inst)) in shapes {
        let facts = inst.facts().count();
        let mut session =
            EvalSession::with_backend(EngineConfig::with_threads(1), SessionBackend::Automaton);
        let (q, i) = (
            session.register_query(query),
            session.register_instance(inst),
        );
        let lineage: Arc<ParallelDnnf> = session.lineage_artifact(q, i).unwrap();
        let circuit = lineage.structured().dnnf().circuit();
        let probs: Vec<Rational> = (0..facts)
            .map(|v| Rational::from_ratio_u64(1 + v as u64 % 5, 6 + v as u64 % 7))
            .collect();
        let hull = ScopeHull::new(circuit);
        let table = || {
            let mut weights = IntWeights::with_capacity(hull.vars().len());
            for &v in hull.vars() {
                weights.push_probability(&probs[v]);
            }
            weights
        };
        let weights = table();
        let limbs = LimbArena::exact(&hull, &weights).limb_count();
        let bits = |v: usize| {
            let mut one = IntWeights::with_capacity(1);
            one.push_probability(&probs[v]);
            one.prefix_bits(1)
        };
        let scope_sum: usize = circuit
            .gate_dependencies()
            .iter()
            .map(|scope| limbs::width(scope.iter().map(|&v| bits(v)).sum()))
            .sum();
        let t_hull = median_us(|| ScopeHull::new(circuit));
        let t_weights = median_us(table);
        let t_layout = median_us(|| LimbArena::exact(&hull, &weights));
        let t_pass = median_us(|| lineage.probability(&|v| &probs[v], 1));
        println!(
            "{:>8} {:>6} {:>6} {:>6} {:>9} {:>7.1}µs {:>7.1}µs {:>7.1}µs {:>7.1}µs {:>7.1}µs",
            name,
            circuit.size(),
            lineage.structured().universe().len(),
            limbs,
            scope_sum,
            t_hull,
            t_weights,
            t_layout,
            t_pass,
            t_pass - t_weights - t_layout
        );
    }
}

/// E-8: the Monte-Carlo fallback's price per answer when the compile budget
/// is blown: one `karp_luby_probability` call at `(ε, δ) = (0.01, 0.01)` on
/// the 3-clause chain, drawing the Karp–Luby–Madras `⌈4m·ln(2/δ)/ε²⌉`
/// worlds. The estimate is deterministic for its seed. perfbench leaves
/// Karp–Luby out, so this is its one timed row.
fn approx_section() {
    header("E-8: the Karp-Luby fallback");
    let (q, inst) = chain(3);
    let valuation = ProbabilityValuation::uniform(&inst, Rational::from_ratio_u64(1, 3));
    let exact = ProbabilityEvaluator::new(&inst, &valuation)
        .query_probability(&q)
        .unwrap()
        .to_f64();
    let (kl, ms) = median_ms(|| karp_luby_probability(&q, &inst, &valuation, 0.01, 0.01, 42));
    println!(
        "\n[E-8] karp_luby_probability, 3-clause chain, all facts 1/3, \
         (eps, delta) = (0.01, 0.01), seed 42 (ms, median of 3 after a warm-up)"
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "clauses", "samples", "estimate", "exact", "rel. error", "time"
    );
    println!(
        "{:>8} {:>10} {:>10.6} {:>10.6} {:>10.6} {:>10.2}ms",
        kl.clauses,
        kl.samples,
        kl.estimate,
        exact,
        (kl.estimate - exact).abs() / exact,
        ms
    );
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

    let threads = threads();
    header(&format!("E-9: unified telemetry (threads = {threads})"));
    let config = EngineConfig {
        telemetry: Telemetry::enabled(),
        ..EngineConfig::with_threads(threads)
    };

    let (q, inst) = chain(100);

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

    let threads = threads();
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

    let (q, inst) = chain(60);
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
