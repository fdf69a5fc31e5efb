//! The write workload: registrations, structural retract/insert pairs,
//! probability overrides and plain answers on one default session, each
//! op followed by one fresh `batch_probability_f64` answer. Registrations
//! keep growing the working set past the session's lineage cache cap, so
//! answers on older instances hit evicted lineages and recompile.

use crate::gen::{self, Family, Rng};
use crate::layers::{self, timed, Machines, Reconciliation};
use crate::mismatch;
use crate::report::{E2e, LayerSamples, Series};
use crate::writes::{self, AnswerKind, Live, Tally};
use std::collections::HashMap;
use treelineage::prelude::*;
use treelineage_graph::treewidth::treewidth_upper_bound;

/// Instances registered (and answered once) during set-up.
const INITIAL: usize = 32;
/// Structural and reweight ops target one of the most recent registrations
/// of their family (within the lineage cache cap, so they mostly exercise
/// incremental maintenance); plain answers target any instance.
const RECENT_PER_FAMILY: usize = 24;
/// Ops in one segment: a run replays whole segments, each on a fresh
/// session set up from the same seed, so its op mix, working set and
/// eviction pattern do not depend on how fast it goes. A segment registers
/// 400 instances on top of the initial 32, passing the 256-lineage cache
/// cap a little over halfway through.
pub const SEGMENT_OPS: usize = 1600;
/// Percentile of the tail metrics: thousands of samples per run leave
/// hundreds beyond it, so a brief host hiccup moves it little.
pub const TAIL_PCT: f64 = 95.0;
/// Worker threads of the session: two (`nproc`), so compiles plan two
/// fragments and structural writes recompile only the dirty one.
pub const THREADS: usize = 2;
/// Families in registration order (instance `i` has family `i % 4`).
const FAMILIES: [Family; 4] = [Family::Chain, Family::Star, Family::Grid, Family::Tree];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Register,
    Structural,
    Reweight,
    Answer,
}

/// The fixed op schedule, repeated: 25% registrations, 35% structural
/// writes, 20% probability overrides, 20% plain answers.
pub const PATTERN: [Op; 20] = {
    use Op::*;
    [
        Register, Structural, Reweight, Structural, Answer, Register, Structural, Reweight,
        Structural, Answer, Register, Structural, Reweight, Structural, Answer, Register,
        Structural, Reweight, Answer, Register,
    ]
};

/// Size range of each family (path length, spokes, grid columns at three
/// rows, tree nodes).
fn size(family: Family, rng: &mut Rng) -> usize {
    match family {
        Family::Chain => rng.range(8, 24),
        Family::Star => rng.range(8, 32),
        Family::Grid => rng.range(3, 4),
        Family::Tree | Family::PlainGrid => rng.range(8, 24),
    }
}

pub struct Ingest {
    seed: u64,
    pub session: EvalSession,
    live: Vec<Live>,
    op: usize,
    /// Per-op counts of structural and reweight ops, for family rotation.
    rotation: [usize; 2],
    /// The exact answer after each op of the segment, from a cold compile
    /// the first time the op runs. Every segment replays the same ops on
    /// the same states, so later segments check against these.
    pub references: HashMap<usize, Rational>,
}

/// One executed op: its kind, the pair answered, and its latency (op +
/// fresh answer) in seconds; `None` latency when it failed.
pub struct Step {
    pub op: Op,
    pub live: usize,
    pub latency: Option<f64>,
}

impl Ingest {
    /// The `n`-th registered shape: a pure function of (seed, n).
    pub fn shape(seed: u64, n: usize) -> gen::Shape {
        let family = FAMILIES[n % FAMILIES.len()];
        let mut rng = Rng::new(seed).fork(2_000_000 + n as u64);
        let size = size(family, &mut rng);
        gen::shape(family, size, &mut rng)
    }

    pub fn setup(seed: u64, telemetry: Telemetry) -> Ingest {
        let config = EngineConfig {
            telemetry,
            ..EngineConfig::with_threads(THREADS)
        };
        let mut ingest = Ingest {
            seed,
            session: EvalSession::new(config),
            live: Vec::new(),
            op: 0,
            rotation: [0; 2],
            references: HashMap::new(),
        };
        for _ in 0..INITIAL {
            let live = ingest.register();
            let mut tally = Tally::default();
            if writes::answer(
                &ingest.session,
                &ingest.live[live],
                AnswerKind::Float,
                &mut tally,
            )
            .0
            .is_none()
            {
                mismatch("set-up: first answer of an initial instance failed");
            }
        }
        ingest
    }

    fn register(&mut self) -> usize {
        let shape = Self::shape(self.seed, self.live.len());
        let query = self.session.register_query(shape.query);
        let instance = self.session.register_instance(shape.instance);
        self.live.push(Live::new(query, instance));
        self.live.len() - 1
    }

    /// A recent registration of the family whose turn it is.
    fn recent(&self, turn: usize, rng: &mut Rng) -> usize {
        let f = turn % FAMILIES.len();
        let newest = (0..self.live.len())
            .rev()
            .find(|i| i % FAMILIES.len() == f)
            .expect("set-up registers every family");
        let window = (newest / FAMILIES.len() + 1).min(RECENT_PER_FAMILY);
        newest - FAMILIES.len() * rng.below(window)
    }

    /// Ops run so far in this segment.
    pub fn ops(&self) -> usize {
        self.op
    }

    /// Whether this session has run its whole segment.
    pub fn segment_done(&self) -> bool {
        self.op >= SEGMENT_OPS
    }

    /// Starts the next segment on a fresh session set up from the same
    /// seed, keeping the references checked so far.
    pub fn next_segment(&mut self, telemetry: Telemetry) {
        let references = std::mem::take(&mut self.references);
        *self = Ingest::setup(self.seed, telemetry);
        self.references = references;
    }

    /// Runs the next op of the schedule, checks its answer against a cold
    /// compile (made the first time this op of the segment runs), and
    /// returns what it did.
    pub fn step(&mut self, tally: &mut Tally) -> Step {
        let op = PATTERN[self.op % PATTERN.len()];
        let n = self.op;
        let mut rng = Rng::new(self.seed).fork(3_000_000 + n as u64);
        self.op += 1;
        let kind = AnswerKind::Float;
        let (live, (answer, latency)) = match op {
            Op::Register => {
                let shape = Self::shape(self.seed, self.live.len());
                let query = self.session.register_query(shape.query);
                let (instance, register_s) =
                    timed(|| self.session.register_instance(shape.instance));
                tally.attempted += 1;
                self.live.push(Live::new(query, instance));
                let live = self.live.len() - 1;
                let (answer, s) = writes::answer(&self.session, &self.live[live], kind, tally);
                (live, (answer, register_s + s))
            }
            Op::Structural => {
                let live = self.recent(self.rotation[0], &mut rng);
                self.rotation[0] += 1;
                let out = writes::structural(
                    &mut self.session,
                    &mut self.live[live],
                    kind,
                    &mut rng,
                    tally,
                );
                (live, out)
            }
            Op::Reweight => {
                let live = self.recent(self.rotation[1], &mut rng);
                self.rotation[1] += 1;
                let out = writes::reweight(
                    &mut self.session,
                    &mut self.live[live],
                    kind,
                    &mut rng,
                    tally,
                );
                (live, out)
            }
            Op::Answer => {
                let live = rng.below(self.live.len());
                (
                    live,
                    writes::answer(&self.session, &self.live[live], kind, tally),
                )
            }
        };
        let latency = answer.map(|a| {
            let exact = self
                .references
                .entry(n)
                .or_insert_with(|| writes::cold_exact(&self.session, &self.live[live], "ingest"));
            writes::check(&a, exact, "ingest");
            latency
        });
        Step { op, live, latency }
    }

    /// Records a timed step, which gave `answered` answers, into the
    /// end-to-end samples.
    pub fn record(step: &Step, e: &mut E2e, answered: u64) {
        let Some(s) = step.latency else {
            return;
        };
        e.call(s, answered);
        e.sample(Series::Latency, s);
        match step.op {
            Op::Register => e.sample(Series::Cold, s),
            Op::Structural => e.sample(Series::Update, s),
            Op::Reweight => e.sample(Series::Reweight, s),
            Op::Answer => {}
        }
    }

    /// The traced run's replay: keeps running ops until `budget` runs
    /// out, replaying each directly after it ran. The direct replay
    /// counts the layers the session's own counters say the op ran (a
    /// compile only on a lineage miss, an encode only when an encoding was
    /// built), plus the lone-request interval pass at two threads. The
    /// direct d-SDNNF compile is from scratch: on an incremental recompile
    /// it bounds the session's own work from above (the session still
    /// keys and merges every fragment, and recompiles the dirty ones).
    /// Registered instances also feed the per-instance layer samples.
    pub fn replay(
        &mut self,
        budget: &crate::Budget,
        recon: &mut Reconciliation,
        samples: &mut LayerSamples,
        tally: &mut Tally,
    ) {
        let mut machines = Machines::default();
        while !budget.spent() {
            if self.segment_done() {
                self.next_segment(Telemetry::disabled());
            }
            let before = self.session.stats();
            let step = self.step(tally);
            let after = self.session.stats();
            let Some(latency) = step.latency else {
                continue;
            };
            let live = &self.live[step.live];
            let instance = self.session.instance(live.instance);
            let query_key = live.query.index();
            let registered = Ingest::shape(self.seed, step.live);
            // Updates keep the decomposition the session pinned at
            // registration: replay against the same one.
            let pinned = (step.op != Op::Register).then(|| {
                let (graph, _) = registered.instance.gaifman_graph();
                treewidth_upper_bound(&graph).1
            });
            let Some((artifact, structure, full)) = layers::compile(
                instance,
                &registered.query,
                query_key,
                pinned.as_ref(),
                &mut machines,
                2,
            ) else {
                continue;
            };
            let valuation = self.session.valuation(live.instance);
            let (_, interval_s) = timed(|| {
                artifact.probability_interval(
                    &|x| ErrorInterval::from_rational(valuation.probability(FactId(x))),
                    2,
                )
            });
            if full.query_compile > 0.0 {
                samples.query_compile_ms.push(full.query_compile * 1e3);
            }
            let mut t = full.clone();
            t.eval_interval = interval_s;
            if after.lineage_misses == before.lineage_misses {
                t.encode = 0.0;
                t.materialize = 0.0;
                t.dsdnnf = 0.0;
            } else if after.encodings_built == before.encodings_built {
                t.encode = 0.0;
            }
            if after.machines_built == before.machines_built {
                t.query_compile = 0.0;
            }
            if step.op == Op::Structural {
                recon.structural.push((latency, t.clone()));
            }
            recon.calls.push((latency, t));
            samples.eval_interval_ms.push(interval_s * 1e3);
            if step.op == Op::Register {
                samples.record_compile(&structure, &full);
                let (exact, s) = timed(|| {
                    artifact.probability(&|x| valuation.probability(FactId(x)).clone(), 1)
                });
                samples.record_exact(s, structure.gates, &exact);
                let mut rng = Rng::new(self.seed).fork(4_000_000 + step.live as u64);
                let (pos, neg) = gen::weights(instance, &mut rng);
                let (_, s) = timed(|| artifact.wmc(&|x| pos[x].clone(), &|x| neg[x].clone(), 1));
                samples.eval_wmc_ms.push(s * 1e3);
                let (_, s) = timed(|| artifact.model_count(1));
                samples.eval_count_ms.push(s * 1e3);
            }
        }
    }
}
