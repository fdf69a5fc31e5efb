//! The two warm read workloads. `serve_exact` sends `batch_probability`
//! calls (with a fixed minority of `batch_wmc` and `batch_model_count`) to
//! an automaton session; `serve_float` sends `batch_threshold` calls (with a
//! fixed minority of `batch_probability_f64`) to a float-first session over
//! the same shapes plus two larger ones. Every pair is compiled during
//! set-up, so the timed loop does no compile work.

use crate::gen::{self, Family, Rng, Shape};
use crate::layers::{self, fan_out, thread_timed, timed, LayerTimes, Machines};
use crate::report::{E2e, LayerSamples, Series};
use crate::writes::{self, AnswerKind, Live, Tally};
use crate::{mismatch, Budget};
use std::sync::Arc;
use treelineage::prelude::*;
use treelineage::{ParallelDnnf, ProbabilityRequest, ThresholdRequest, WmcRequest};

/// Requests per call.
const BATCH: usize = 16;
/// Worker threads of the serve sessions: one, so every call runs inline on
/// the client thread. Its CPU time is then the request work alone; on two
/// threads it also depends on whether the host runs both workers at once
/// (they share a core's execution units when it does).
pub const THREADS: usize = 1;
/// Calls in one repetition of the call pattern; throughput is measured
/// per pattern window so every window has the same mix.
pub const PATTERN_CALLS: usize = 8;
/// The shape the write probes run on (`chain16`), through a copy of its
/// instance that the timed calls never read.
const PROBED: usize = 0;
const PROBE_ANSWER: AnswerKind = AnswerKind::Float;
/// Probes run after each pattern window, outside the timed calls:
/// (cold, structural, reweight) probes after window `w`. `serve_exact`
/// windows are about four times longer, so they carry more probes; cold
/// probes are spaced so that a run reaches [`MAX_COLD_PROBES`] near its
/// end and they sample the whole run.
fn probes_after_window(kind: AnswerKind, w: usize) -> (usize, usize, usize) {
    match kind {
        AnswerKind::Exact => (4, 10, 10),
        AnswerKind::Float => (usize::from(w.is_multiple_of(2)), 3, 3),
    }
}
/// Each cold probe registers an instance; capping them keeps peak memory
/// independent of how many windows a run completes.
const MAX_COLD_PROBES: usize = 64;
/// Percentile of `latency_tail_ms` and `update_tail_ms`: fixed, so the
/// metrics mean the same on every run, and low enough to keep ten samples
/// beyond it on a run well slower than today's. A 25 s run has about 110
/// `batch_probability` calls, 450 `batch_threshold` calls and 170
/// structural probes, so at least 25 lie beyond p75. Call costs differ with
/// which pairs a call's requests land on, and a higher percentile of
/// `batch_threshold` calls moved by 13% between seeds.
pub const TAIL_PCT: f64 = 75.0;
/// The shapes both workloads serve; `serve_float` adds `LARGE`.
const SMALL: [(Family, usize); 4] = [
    (Family::Chain, 16),
    (Family::Chain, 32),
    (Family::Star, 32),
    (Family::PlainGrid, 4),
];
const LARGE: [(Family, usize); 2] = [(Family::Chain, 100), (Family::Star, 400)];

/// One call of the closed loop: `(pair, valuation or weight index)` per
/// request, plus a threshold for threshold requests.
#[derive(Debug)]
pub enum Call {
    Probability(Vec<(usize, usize)>),
    Wmc(Vec<(usize, usize)>),
    Count(Vec<usize>),
    Threshold(Vec<(usize, usize, Rational)>),
    ProbabilityF64(Vec<(usize, usize)>),
}

/// The generated inputs of a serve workload.
pub struct Inputs {
    pub shapes: Vec<Shape>,
    pub valuations: Vec<Vec<ProbabilityValuation>>,
    pub weights: Vec<Vec<(Vec<Rational>, Vec<Rational>)>>,
}

fn inputs(kind: AnswerKind, seed: u64) -> Inputs {
    let rng = Rng::new(seed);
    let mut specs = SMALL.to_vec();
    if kind == AnswerKind::Float {
        specs.extend(LARGE);
    }
    let shapes: Vec<Shape> = specs
        .iter()
        .enumerate()
        .map(|(p, &(family, size))| gen::shape(family, size, &mut rng.fork(100 + p as u64)))
        .collect();
    // Exact references are computed once per pool entry, so the pools of
    // the large float shapes stay at one valuation.
    let (small_pool, large_pool, weight_pool) = match kind {
        AnswerKind::Exact => (12, 12, 3),
        AnswerKind::Float => (4, 1, 1),
    };
    let mut valuations = Vec::new();
    let mut weights = Vec::new();
    for (p, shape) in shapes.iter().enumerate() {
        let mut r = rng.fork(200 + p as u64);
        let pool = if p < SMALL.len() {
            small_pool
        } else {
            large_pool
        };
        valuations.push(
            (0..pool)
                .map(|_| gen::valuation(&shape.instance, &mut r))
                .collect(),
        );
        weights.push(
            (0..weight_pool)
                .map(|_| gen::weights(&shape.instance, &mut r))
                .collect(),
        );
    }
    Inputs {
        shapes,
        valuations,
        weights,
    }
}

/// Exact answers of every pool entry through an independent path: the
/// sequential `Dnnf` passes over a `LineageBuilder` artifact.
pub struct References {
    pub probability: Vec<Vec<Rational>>,
    pub wmc: Vec<Vec<Rational>>,
    pub count: Vec<BigUint>,
}

pub struct Serve {
    kind: AnswerKind,
    seed: u64,
    inputs: Inputs,
    pub session: EvalSession,
    pairs: Vec<Live>,
    smallest: usize,
    /// The write probes' own copy of the `PROBED` shape.
    probe: Live,
    probe_rng: Rng,
    cold_probes: usize,
}

impl Serve {
    /// Generates the inputs, registers every pair and answers each once,
    /// so every pair's lineage is compiled before the timed loop.
    pub fn setup(kind: AnswerKind, seed: u64, telemetry: Telemetry) -> Serve {
        let inputs = inputs(kind, seed);
        let config = EngineConfig {
            telemetry,
            ..EngineConfig::with_threads(THREADS)
        };
        let backend = match kind {
            AnswerKind::Exact => SessionBackend::Automaton,
            AnswerKind::Float => SessionBackend::FloatFirst,
        };
        let mut session = EvalSession::with_backend(config, backend);
        let mut pairs = Vec::new();
        for shape in &inputs.shapes {
            let query = session.register_query(shape.query.clone());
            let instance = session.register_instance(shape.instance.clone());
            let live = Live::new(query, instance);
            let (answer, _) = writes::answer(&session, &live, kind, &mut Tally::default());
            if answer.is_none() {
                mismatch(&format!("set-up: {} failed to compile", shape.label()));
            }
            pairs.push(live);
        }
        let smallest = (0..inputs.shapes.len())
            .min_by_key(|&p| inputs.shapes[p].instance.fact_count())
            .expect("at least one shape");
        // The probe copy starts from the shape's first pool valuation, so
        // writes see realistic exact-answer sizes.
        let shape = &inputs.shapes[PROBED];
        let instance = session.register_instance(shape.instance.clone());
        let probe = Live::new(pairs[PROBED].query, instance);
        for f in shape.instance.fact_ids() {
            let p = inputs.valuations[PROBED][0].probability(f).clone();
            if session.set_probability(instance, f, p).is_err() {
                mismatch("set-up: a pool probability was rejected");
            }
        }
        if writes::answer(&session, &probe, PROBE_ANSWER, &mut Tally::default())
            .0
            .is_none()
        {
            mismatch("set-up: the probe copy failed to compile");
        }
        Serve {
            kind,
            seed,
            inputs,
            session,
            pairs,
            smallest,
            probe,
            probe_rng: Rng::new(seed).fork(7),
            cold_probes: 0,
        }
    }

    pub fn references(&self) -> References {
        let mut out = References {
            probability: Vec::new(),
            wmc: Vec::new(),
            count: Vec::new(),
        };
        for (p, shape) in self.inputs.shapes.iter().enumerate() {
            let lineage = LineageBuilder::new(&shape.query, &shape.instance)
                .and_then(|b| b.automaton_lineage())
                .unwrap_or_else(|e| mismatch(&format!("reference compile failed: {e}")));
            let dnnf = lineage.structured().dnnf();
            out.probability.push(
                self.inputs.valuations[p]
                    .iter()
                    .map(|v| dnnf.probability(&|x| v.probability(FactId(x)).clone()))
                    .collect(),
            );
            if self.kind == AnswerKind::Exact {
                out.wmc.push(
                    self.inputs.weights[p]
                        .iter()
                        .map(|(pos, neg)| dnnf.wmc(&|x| pos[x].clone(), &|x| neg[x].clone()))
                        .collect(),
                );
                out.count.push(dnnf.count_models_smooth());
            }
        }
        out
    }

    /// Call `k` of the closed loop: a pure function of (seed, k). Calls
    /// follow a fixed [`PATTERN_CALLS`]-call pattern, so every seed has the
    /// same mix. A call spreads its requests evenly over the pairs in a
    /// seeded order, so no fixed order favours one of the pool's workers.
    pub fn call(&self, k: usize, refs: &References) -> Call {
        let mut rng = Rng::new(self.seed).fork(1_000_000 + k as u64);
        let mut order: Vec<usize> = (0..BATCH).map(|j| j % self.pairs.len()).collect();
        rng.shuffle(&mut order);
        let pool = |p: usize, rng: &mut Rng| rng.below(self.inputs.valuations[p].len());
        match (self.kind, k % PATTERN_CALLS) {
            (AnswerKind::Exact, 3) => Call::Wmc(
                order
                    .iter()
                    .map(|&p| (p, rng.below(self.inputs.weights[p].len())))
                    .collect(),
            ),
            (AnswerKind::Exact, 7) => Call::Count(order),
            (AnswerKind::Exact, _) => {
                Call::Probability(order.iter().map(|&p| (p, pool(p, &mut rng))).collect())
            }
            (AnswerKind::Float, 7) => {
                Call::ProbabilityF64(order.iter().map(|&p| (p, pool(p, &mut rng))).collect())
            }
            (AnswerKind::Float, _) => {
                // One request, at a seeded position, is thresholded exactly
                // at the smallest pair's exact answer: the interval cannot
                // decide it, so it takes the exact tier.
                let exact_at = rng.below(BATCH);
                Call::Threshold(
                    order
                        .iter()
                        .enumerate()
                        .map(|(j, &p)| {
                            if j == exact_at {
                                let p = self.smallest;
                                let v = pool(p, &mut rng);
                                (p, v, refs.probability[p][v].clone())
                            } else {
                                (p, pool(p, &mut rng), gen::threshold(&mut rng))
                            }
                        })
                        .collect(),
                )
            }
        }
    }

    /// Whether `call` is one the `latency_*` metrics are taken over.
    pub fn is_primary(call: &Call) -> bool {
        matches!(call, Call::Probability(_) | Call::Threshold(_))
    }

    fn probability_requests(&self, reqs: &[(usize, usize)]) -> Vec<ProbabilityRequest> {
        reqs.iter()
            .map(|&(p, v)| ProbabilityRequest {
                query: self.pairs[p].query,
                instance: self.pairs[p].instance,
                valuation: self.inputs.valuations[p][v].clone(),
            })
            .collect()
    }

    /// Sends one call and checks every answer against the references.
    /// Requests are built before the clock starts. Returns the latency in
    /// seconds.
    pub fn execute(&self, call: &Call, refs: &References, tally: &mut Tally) -> f64 {
        let session = &self.session;
        let mut count = |ok: bool| {
            tally.attempted += 1;
            if ok {
                tally.answered += 1;
            } else {
                tally.failed += 1;
            }
        };
        match call {
            Call::Probability(reqs) => {
                let requests = self.probability_requests(reqs);
                let (results, s) = timed(|| session.batch_probability(&requests));
                for (&(p, v), r) in reqs.iter().zip(&results) {
                    count(r.is_ok());
                    if let Ok(got) = r {
                        if *got != refs.probability[p][v] {
                            mismatch(&format!(
                                "{}: probability {got} != reference {}",
                                self.inputs.shapes[p].label(),
                                refs.probability[p][v]
                            ));
                        }
                    }
                }
                s
            }
            Call::ProbabilityF64(reqs) => {
                let requests = self.probability_requests(reqs);
                let (results, s) = timed(|| session.batch_probability_f64(&requests));
                for (&(p, v), r) in reqs.iter().zip(&results) {
                    count(r.is_ok());
                    if let Ok((_, interval)) = r {
                        if !interval.contains(&refs.probability[p][v]) {
                            mismatch(&format!(
                                "{}: interval [{}, {}] misses {}",
                                self.inputs.shapes[p].label(),
                                interval.lo(),
                                interval.hi(),
                                refs.probability[p][v]
                            ));
                        }
                    }
                }
                s
            }
            Call::Threshold(reqs) => {
                let requests: Vec<ThresholdRequest> = reqs
                    .iter()
                    .map(|(p, v, t)| ThresholdRequest {
                        query: self.pairs[*p].query,
                        instance: self.pairs[*p].instance,
                        valuation: self.inputs.valuations[*p][*v].clone(),
                        threshold: t.clone(),
                    })
                    .collect();
                let (results, s) = timed(|| session.batch_threshold(&requests));
                for ((p, v, t), r) in reqs.iter().zip(&results) {
                    count(r.is_ok());
                    if let Ok(decision) = r {
                        let exact = &refs.probability[*p][*v];
                        if decision.above != (exact > t) {
                            mismatch(&format!(
                                "{}: threshold {t} decided above={} but exact is {exact}",
                                self.inputs.shapes[*p].label(),
                                decision.above
                            ));
                        }
                    }
                }
                s
            }
            Call::Wmc(reqs) => {
                let requests: Vec<WmcRequest> = reqs
                    .iter()
                    .map(|&(p, w)| WmcRequest {
                        query: self.pairs[p].query,
                        instance: self.pairs[p].instance,
                        pos: self.inputs.weights[p][w].0.clone(),
                        neg: self.inputs.weights[p][w].1.clone(),
                    })
                    .collect();
                let (results, s) = timed(|| session.batch_wmc(&requests));
                for (&(p, w), r) in reqs.iter().zip(&results) {
                    count(r.is_ok());
                    if let Ok(got) = r {
                        if *got != refs.wmc[p][w] {
                            mismatch(&format!(
                                "{}: wmc {got} != reference {}",
                                self.inputs.shapes[p].label(),
                                refs.wmc[p][w]
                            ));
                        }
                    }
                }
                s
            }
            Call::Count(reqs) => {
                let requests: Vec<_> = reqs
                    .iter()
                    .map(|&p| (self.pairs[p].query, self.pairs[p].instance))
                    .collect();
                let (results, s) = timed(|| session.batch_model_count(&requests));
                for (&p, r) in reqs.iter().zip(&results) {
                    count(r.is_ok());
                    if let Ok(got) = r {
                        if *got != refs.count[p] {
                            mismatch(&format!(
                                "{}: model count {got} != reference {}",
                                self.inputs.shapes[p].label(),
                                refs.count[p]
                            ));
                        }
                    }
                }
                s
            }
        }
    }

    /// One pattern window's probes, run between timed calls so they sample
    /// the host over the whole run. All of them use the `chain16` shape,
    /// so the samples do not mix pairs of different cost (whose boundary a
    /// median would straddle). Like every `ingest_update` op, each probe is
    /// answered through `batch_probability_f64`, and the answer is checked
    /// against a cold compile.
    ///
    /// * cold: a fresh copy of the instance is registered and answered
    ///   once (query machine warm, lineage cold);
    /// * update: a structural retract/insert write on the probe copy, with
    ///   a fresh answer;
    /// * reweight: a probability override/restore on the probe copy, with
    ///   a fresh answer.
    pub fn probe_window(&mut self, e: &mut E2e) {
        let (cold, structural, reweight) = probes_after_window(self.kind, e.windows.len());
        let cold = cold.min(MAX_COLD_PROBES.saturating_sub(self.cold_probes));
        self.cold_probes += cold;
        for _ in 0..cold {
            let instance = self.inputs.shapes[PROBED].instance.clone();
            let (instance, register_s) = timed(|| self.session.register_instance(instance));
            let live = Live::new(self.probe.query, instance);
            let (answer, s) = writes::answer(&self.session, &live, PROBE_ANSWER, &mut e.tally);
            if let Some(answer) = answer {
                writes::check_against_cold(&self.session, &live, &answer, "cold probe");
                e.sample(Series::Cold, register_s + s);
            }
        }
        for k in 0..structural + reweight {
            let live = &mut self.probe;
            let rng = &mut self.probe_rng;
            let (answer, s) = if k < structural {
                writes::structural(&mut self.session, live, PROBE_ANSWER, rng, &mut e.tally)
            } else {
                writes::reweight(&mut self.session, live, PROBE_ANSWER, rng, &mut e.tally)
            };
            if let Some(answer) = answer {
                writes::check_against_cold(&self.session, live, &answer, "probe");
                let series = if k < structural {
                    Series::Update
                } else {
                    Series::Reweight
                };
                e.sample(series, s);
            }
        }
    }

    fn artifacts(&self) -> Vec<Arc<ParallelDnnf>> {
        self.pairs
            .iter()
            .map(|l| {
                self.session
                    .lineage_artifact(l.query, l.instance)
                    .unwrap_or_else(|e| mismatch(&format!("resident lineage missing: {e}")))
            })
            .collect()
    }

    /// Replays one call's requests directly on the served artifacts, on
    /// [`THREADS`] workers (as the session's pool spreads a batch), each
    /// pass single-threaded. Threshold requests the interval cannot decide
    /// also run the exact pass, as the session's fallback does. Returns the
    /// direct layer times, attributed to the fan-out's CPU time.
    fn direct(&self, call: &Call, artifacts: &[Arc<ParallelDnnf>]) -> LayerTimes {
        let vals = &self.inputs.valuations;
        let exact = |p: usize, v: usize| {
            artifacts[p].probability(&|x| vals[p][v].probability(FactId(x)).clone(), 1)
        };
        let interval = |p: usize, v: usize| {
            artifacts[p].probability_interval(
                &|x| ErrorInterval::from_rational(vals[p][v].probability(FactId(x))),
                1,
            )
        };
        let (cpu, per_task) = match call {
            Call::Probability(reqs) => fan_out(reqs.len(), THREADS, |i| {
                let (p, v) = reqs[i];
                let (_, s) = thread_timed(|| exact(p, v));
                LayerTimes {
                    eval_exact: s,
                    ..LayerTimes::default()
                }
            }),
            Call::ProbabilityF64(reqs) => fan_out(reqs.len(), THREADS, |i| {
                let (p, v) = reqs[i];
                let (_, s) = thread_timed(|| interval(p, v));
                LayerTimes {
                    eval_interval: s,
                    ..LayerTimes::default()
                }
            }),
            Call::Threshold(reqs) => fan_out(reqs.len(), THREADS, |i| {
                let (p, v, ref t) = reqs[i];
                let (iv, s) = thread_timed(|| interval(p, v));
                let mut times = LayerTimes {
                    eval_interval: s,
                    ..LayerTimes::default()
                };
                if iv.compare_threshold(t).is_none() {
                    times.eval_exact = thread_timed(|| exact(p, v)).1;
                }
                times
            }),
            Call::Wmc(reqs) => fan_out(reqs.len(), THREADS, |i| {
                let (p, w) = reqs[i];
                let (pos, neg) = &self.inputs.weights[p][w];
                let (_, s) =
                    thread_timed(|| artifacts[p].wmc(&|x| pos[x].clone(), &|x| neg[x].clone(), 1));
                LayerTimes {
                    eval_wmc: s,
                    ..LayerTimes::default()
                }
            }),
            Call::Count(reqs) => {
                // The session counts each distinct pair once.
                let mut unique = reqs.clone();
                unique.sort_unstable();
                unique.dedup();
                fan_out(unique.len(), THREADS, |i| {
                    let (_, s) = thread_timed(|| artifacts[unique[i]].model_count(1));
                    LayerTimes {
                        eval_count: s,
                        ..LayerTimes::default()
                    }
                })
            }
        };
        layers::attribute(cpu, &per_task)
    }

    /// The traced run's replay: re-sends calls `0..` of the timed loop
    /// through the session and replays each directly, until `budget`
    /// runs out; then compiles every pair directly and runs each pass
    /// once per pool entry for the per-layer samples.
    pub fn replay(
        &self,
        refs: &References,
        budget: &Budget,
        recon: &mut crate::layers::Reconciliation,
        samples: &mut LayerSamples,
        tally: &mut Tally,
    ) {
        let artifacts = self.artifacts();
        let mut k = 0;
        while !budget.spent() {
            let call = self.call(k, refs);
            let latency = self.execute(&call, refs, tally);
            recon.calls.push((latency, self.direct(&call, &artifacts)));
            k += 1;
        }
        let mut machines = Machines::default();
        for (p, shape) in self.inputs.shapes.iter().enumerate() {
            let Some((artifact, structure, times)) = layers::compile(
                &shape.instance,
                &shape.query,
                p,
                None,
                &mut machines,
                THREADS,
            ) else {
                mismatch(&format!("{}: direct compile failed", shape.label()));
            };
            samples.record_compile(&structure, &times);
            if times.query_compile > 0.0 {
                samples.query_compile_ms.push(times.query_compile * 1e3);
            }
            for v in &self.inputs.valuations[p] {
                let (exact, s) =
                    timed(|| artifact.probability(&|x| v.probability(FactId(x)).clone(), 1));
                samples.record_exact(s, structure.gates, &exact);
                let (_, s) = timed(|| {
                    artifact.probability_interval(
                        &|x| ErrorInterval::from_rational(v.probability(FactId(x))),
                        1,
                    )
                });
                samples.eval_interval_ms.push(s * 1e3);
            }
            for (pos, neg) in &self.inputs.weights[p] {
                let (_, s) = timed(|| artifact.wmc(&|x| pos[x].clone(), &|x| neg[x].clone(), 1));
                samples.eval_wmc_ms.push(s * 1e3);
            }
            let (_, s) = timed(|| artifact.model_count(1));
            samples.eval_count_ms.push(s * 1e3);
        }
    }
}
