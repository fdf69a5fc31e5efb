//! Safe queries and unfoldings (Section 9): an inversion-free UCQ "sees" any
//! instance as a bounded tree-depth one — the unfolding preserves the lineage
//! exactly while making the Gaifman graph a shallow forest, which explains
//! the constant-width OBDDs of inversion-free queries (Theorem 9.7 + 9.6).
//!
//! The lineage-preservation consequence (Lemma 9.5: equal query probability
//! before and after unfolding) is checked here *constructively* through the
//! automaton pipeline (`LineageBuilder::automaton_lineage`, Section 6):
//! earlier revisions had to shrink this instance to 16 facts because the
//! brute-force `lineage_preserved` oracle enumerates all `2^facts` worlds
//! (capped at 18); the automaton pipeline evaluates the full 24-fact star
//! join exactly, and the oracle stays behind for differential tests on
//! small instances only.
//!
//! Run with `cargo run --example safe_queries`.

use treelineage::prelude::*;
use treelineage_safe as safe;

fn main() {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    // A "star join" instance where many S-facts share their second attribute,
    // creating a dense Gaifman graph. 6 + 6·3 = 24 facts.
    let n = 6u64;
    let mut inst = Instance::new(sig.clone());
    for a in 1..=n {
        inst.add_fact_by_name("R", &[a]);
        for c in 1..=3u64 {
            inst.add_fact_by_name("S", &[a, n + c]);
        }
    }
    let q = parse_query(&sig, "R(x), S(x, y)").unwrap();

    println!("query                  : {}", q);
    println!("facts                  : {}", inst.fact_count());
    println!(
        "hierarchical           : {}",
        q.disjuncts()[0].is_hierarchical()
    );
    println!("inversion-free         : {}", safe::is_inversion_free(&q));
    println!(
        "safe (sjf dichotomy)   : {}",
        safe::is_safe_self_join_free_cq(&q.disjuncts()[0])
    );

    let (w_before, _, _) = inst.treewidth_upper_bound();
    let unfolding = safe::unfold_for_query(&q, &inst).expect("inversion-free");
    let (w_after, _, _) = unfolding.instance.treewidth_upper_bound();
    println!("treewidth before/after : {} / {}", w_before, w_after);
    println!("tree-depth of unfolding: {}", unfolding.tree_depth);
    assert!(unfolding.tree_depth <= sig.max_arity());

    // Lemma 9.5, checked exactly at 24 facts: the query probability on the
    // original instance — computed by the automaton pipeline, which never
    // enumerates matches — equals the probability on the unfolded instance
    // (computed by the shared dd engine over its constant-width order). The
    // unfolding's fact map is a bijection, so a uniform valuation induces
    // the same tuple-independent distribution on both sides.
    let p_fact = Rational::from_ratio_u64(1, 3);
    let lineage = LineageBuilder::new(&q, &inst)
        .unwrap()
        .automaton_lineage()
        .unwrap();
    let p_original = lineage.probability(&|_| p_fact.clone(), 1);
    let unfolded_valuation = ProbabilityValuation::uniform(&unfolding.instance, p_fact);
    let p_unfolded = ProbabilityEvaluator::new(&unfolding.instance, &unfolded_valuation)
        .query_probability(&q)
        .unwrap();
    assert_eq!(p_original, p_unfolded);
    println!("P(q), original, via automaton pipeline: {}", p_original);
    println!("P(q), unfolding, via shared dd engine : {}", p_unfolded);
    println!("lineage preserved      : true (equal exact probabilities)");

    // The automaton pipeline's artifact, for the curious.
    println!(
        "automaton pipeline     : {} events, d-SDNNF size {}",
        lineage.structured().universe().len(),
        lineage.size()
    );

    // … and on the unfolded, bounded-pathwidth instance the OBDD has constant
    // width (Theorems 6.7 / 9.6).
    let (manager, root) = LineageBuilder::new(&q, &unfolding.instance).unwrap().dd();
    println!("OBDD width (unfolded)  : {}", manager.width(root));

    // Contrast with the classic unsafe query, which is not inversion-free.
    let rst = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let unsafe_q = parse_query(&rst, "R(x), S(x, y), T(y)").unwrap();
    println!(
        "R(x),S(x,y),T(y) inversion-free: {}",
        safe::is_inversion_free(&unsafe_q)
    );
}
