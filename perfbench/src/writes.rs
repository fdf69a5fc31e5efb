//! Write operations on a live session (structural retract/insert pairs and
//! probability overrides), each followed by one fresh answer, and the
//! answer check against an independent cold compile.

use crate::clock;
use crate::gen::{self, Rng};
use crate::mismatch;
use treelineage::prelude::*;
use treelineage::{validate_retract, ProbabilityRequest};
use treelineage_engine::{InstanceId, QueryId};
use treelineage_instance::Fact;

/// Which batch method serves a workload's fresh answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerKind {
    /// `batch_probability`: the exact rational.
    Exact,
    /// `batch_probability_f64`: the certified interval.
    Float,
}

/// A fresh answer as served.
pub enum Answer {
    Exact(Rational),
    Float(ErrorInterval),
}

/// One (query, instance) pair the benchmark keeps writing to. At most one
/// structural retraction and one probability override are outstanding per
/// pair: retract/insert ops alternate, so the instance stays inside its
/// registered domain, and override/restore ops alternate, so exact answers
/// do not grow without bound over a run.
pub struct Live {
    pub query: QueryId,
    pub instance: InstanceId,
    retracted: Option<(Fact, Rational)>,
    overridden: Option<(Fact, Rational)>,
}

impl Live {
    pub fn new(query: QueryId, instance: InstanceId) -> Self {
        Live {
            query,
            instance,
            retracted: None,
            overridden: None,
        }
    }
}

/// Operations attempted and typed errors seen.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Requests answered (successful answers).
    pub answered: u64,
}

/// Answers `live` once from the session's resident valuation. The clone of
/// the valuation is built before the clock starts: it is the client's
/// request, not serving work. Returns the answer (or `None` on a typed
/// error, counted as failed) and the call's latency in seconds.
pub fn answer(
    session: &EvalSession,
    live: &Live,
    kind: AnswerKind,
    tally: &mut Tally,
) -> (Option<Answer>, f64) {
    let request = [ProbabilityRequest {
        query: live.query,
        instance: live.instance,
        valuation: session.valuation(live.instance).clone(),
    }];
    tally.attempted += 1;
    let started = clock::process();
    let result = match kind {
        AnswerKind::Exact => session.batch_probability(&request)[0]
            .clone()
            .map(Answer::Exact),
        AnswerKind::Float => session.batch_probability_f64(&request)[0]
            .clone()
            .map(|(_, interval)| Answer::Float(interval)),
    };
    let elapsed = clock::process() - started;
    match result {
        Ok(a) => {
            tally.answered += 1;
            (Some(a), elapsed)
        }
        Err(_) => {
            tally.failed += 1;
            (None, elapsed)
        }
    }
}

/// The exact answer of `live` through [`EvalSession::cold_lineage`] (a
/// from-scratch compile that bypasses every lineage cache) plus one exact
/// pass over the session's resident valuation.
pub fn cold_exact(session: &EvalSession, live: &Live, context: &str) -> Rational {
    let cold = session
        .cold_lineage(live.query, live.instance)
        .unwrap_or_else(|e| mismatch(&format!("{context}: cold compile failed: {e}")));
    let valuation = session.valuation(live.instance);
    cold.probability(&|v| valuation.probability(FactId(v)).clone(), 2)
}

/// Checks a fresh answer against [`cold_exact`]. Exits on mismatch.
pub fn check_against_cold(session: &EvalSession, live: &Live, answer: &Answer, context: &str) {
    check(answer, &cold_exact(session, live, context), context);
}

/// Checks a fresh answer against the exact value. Exits on mismatch.
pub fn check(answer: &Answer, exact: &Rational, context: &str) {
    match answer {
        Answer::Exact(p) if p != exact => mismatch(&format!(
            "{context}: served {p}, cold compile gives {exact}"
        )),
        Answer::Float(interval) if !interval.contains(exact) => mismatch(&format!(
            "{context}: interval [{}, {}] misses the exact {exact}",
            interval.lo(),
            interval.hi()
        )),
        _ => {}
    }
}

/// One structural write plus its fresh answer: re-inserts the pair's
/// outstanding retraction, or retracts a random fact that
/// [`validate_retract`] accepts (so the domain-pinning rules never reject
/// it). Returns the answer and the latency (write + answer) in seconds.
pub fn structural(
    session: &mut EvalSession,
    live: &mut Live,
    kind: AnswerKind,
    rng: &mut Rng,
    tally: &mut Tally,
) -> (Option<Answer>, f64) {
    let started;
    let written = match live.retracted.take() {
        Some((fact, p)) => {
            started = clock::process();
            session.insert_fact(live.instance, fact, p)
        }
        None => {
            let instance = session.instance(live.instance);
            let n = instance.fact_count();
            let offset = rng.below(n);
            let fact = (0..n)
                .map(|i| FactId((offset + i) % n))
                .find(|&f| validate_retract(instance, f, true).is_ok())
                .unwrap_or_else(|| mismatch("generated instance has no retractable fact"));
            let saved = (
                instance.fact(fact).clone(),
                session.valuation(live.instance).probability(fact).clone(),
            );
            started = clock::process();
            let result = session.retract_fact(live.instance, fact);
            if result.is_ok() {
                live.retracted = Some(saved);
            }
            result
        }
    };
    let write_time = clock::process() - started;
    tally.attempted += 1;
    if written.is_err() {
        tally.failed += 1;
        return (None, write_time);
    }
    let (answer, answer_time) = answer(session, live, kind, tally);
    (answer, write_time + answer_time)
}

/// One probability write plus its fresh answer: restores the pair's
/// outstanding override, or overrides a seeded fact with a seeded value.
pub fn reweight(
    session: &mut EvalSession,
    live: &mut Live,
    kind: AnswerKind,
    rng: &mut Rng,
    tally: &mut Tally,
) -> (Option<Answer>, f64) {
    // Facts move ids under retract/insert, so an override is restored by
    // content; if the fact is retracted meanwhile, a fresh override runs.
    let instance = session.instance(live.instance);
    let restore = live.overridden.take().and_then(|(f, p)| {
        instance
            .fact_id(f.relation(), f.arguments())
            .map(|id| (id, p))
    });
    let (fact, p) = match restore {
        Some(restore) => restore,
        None => {
            let fact = FactId(rng.below(instance.fact_count()));
            let old = session.valuation(live.instance).probability(fact).clone();
            live.overridden = Some((instance.fact(fact).clone(), old));
            (fact, gen::probability(rng))
        }
    };
    tally.attempted += 1;
    let started = clock::process();
    let written = session.set_probability(live.instance, fact, p);
    let write_time = clock::process() - started;
    if written.is_err() {
        tally.failed += 1;
        return (None, write_time);
    }
    let (answer, answer_time) = answer(session, live, kind, tally);
    (answer, write_time + answer_time)
}
