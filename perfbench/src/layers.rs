//! Direct layer replays for the traced run: the same inputs the session
//! served, pushed through each layer's public entry point and timed from
//! the benchmark's side (no span is added inside the program).

use crate::clock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use treelineage::prelude::*;
use treelineage::ParallelDnnf;
use treelineage_encoding::{compile_ucq, encode_trusted, CompileOptions, CompiledQuery};
use treelineage_engine::compile_structured_dnnf_parallel;
use treelineage_graph::treewidth::treewidth_upper_bound;

/// Times `f` in CPU seconds of the whole process (every thread `f` runs
/// work on).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = clock::process();
    let out = f();
    (out, clock::process() - started)
}

/// Times `f` in CPU seconds of the calling thread: a fan-out task's own
/// share of the process's time.
pub fn thread_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = clock::thread();
    let out = f();
    (out, clock::thread() - started)
}

/// Seconds spent per layer, summed over replays.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub treewidth: f64,
    pub encode: f64,
    pub query_compile: f64,
    pub materialize: f64,
    pub dsdnnf: f64,
    pub eval_exact: f64,
    pub eval_wmc: f64,
    pub eval_count: f64,
    pub eval_interval: f64,
}

impl LayerTimes {
    pub fn compile(&self) -> f64 {
        self.treewidth + self.encode + self.query_compile + self.materialize + self.dsdnnf
    }

    pub fn eval(&self) -> f64 {
        self.eval_exact + self.eval_wmc + self.eval_count + self.eval_interval
    }

    pub fn total(&self) -> f64 {
        self.compile() + self.eval()
    }

    pub fn add(&mut self, o: &LayerTimes) {
        self.treewidth += o.treewidth;
        self.encode += o.encode;
        self.query_compile += o.query_compile;
        self.materialize += o.materialize;
        self.dsdnnf += o.dsdnnf;
        self.eval_exact += o.eval_exact;
        self.eval_wmc += o.eval_wmc;
        self.eval_count += o.eval_count;
        self.eval_interval += o.eval_interval;
    }

    pub fn scaled(&self, k: f64) -> LayerTimes {
        LayerTimes {
            treewidth: self.treewidth * k,
            encode: self.encode * k,
            query_compile: self.query_compile * k,
            materialize: self.materialize * k,
            dsdnnf: self.dsdnnf * k,
            eval_exact: self.eval_exact * k,
            eval_wmc: self.eval_wmc * k,
            eval_count: self.eval_count * k,
            eval_interval: self.eval_interval * k,
        }
    }
}

/// Per-call reconciliation of the traced run: the session's call latency
/// against the direct layer times of the same requests.
#[derive(Default)]
pub struct Reconciliation {
    pub calls: Vec<(f64, LayerTimes)>,
    pub structural: Vec<(f64, LayerTimes)>,
}

impl Reconciliation {
    /// Median of (call latency − direct layer time), in ms.
    pub fn overhead_ms(&self) -> f64 {
        let v: Vec<f64> = self
            .calls
            .iter()
            .map(|(call, layers)| (call - layers.total()) * 1e3)
            .collect();
        crate::stats::median(&v)
    }

    /// Summed layer times and summed call time.
    pub fn totals(rows: &[(f64, LayerTimes)]) -> (LayerTimes, f64) {
        let mut layers = LayerTimes::default();
        let mut call = 0.0;
        for (c, l) in rows {
            layers.add(l);
            call += c;
        }
        (layers, call)
    }
}

/// Structure of one compiled pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct Structure {
    pub tree_nodes: usize,
    pub automaton_states: usize,
    pub gates: usize,
    pub fragments: usize,
}

/// Benchmark-side query machines keyed by (query key, alphabet width),
/// kept across replays the way a session keeps its machine cache.
#[derive(Default)]
pub struct Machines(HashMap<(usize, usize), CompiledQuery>);

/// One direct compile: treewidth heuristic (unless `decomposition` is
/// given, as a session pins one per registered instance) → encode → query
/// compile (first use of a (query, width) machine only) → automaton
/// materialization → parallel d-SDNNF compile at `threads`. `None` when
/// the library rejects the input (the session would report the same
/// typed error).
pub fn compile(
    instance: &Instance,
    query: &UnionOfConjunctiveQueries,
    query_key: usize,
    decomposition: Option<&TreeDecomposition>,
    machines: &mut Machines,
    threads: usize,
) -> Option<(ParallelDnnf, Structure, LayerTimes)> {
    let mut t = LayerTimes::default();
    let computed;
    let td = match decomposition {
        Some(td) => td,
        None => {
            let (graph, _) = instance.gaifman_graph();
            let ((_, td), s) = timed(|| treewidth_upper_bound(&graph));
            t.treewidth = s;
            computed = td;
            &computed
        }
    };
    let (encoding, s) = timed(|| encode_trusted(instance, td));
    let encoding = encoding.ok()?;
    t.encode = s;
    let machine = match machines.0.entry((query_key, encoding.alphabet().width())) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(entry) => {
            let (machine, s) =
                timed(|| compile_ucq(query, encoding.alphabet(), CompileOptions::default()));
            t.query_compile = s;
            entry.insert(machine.ok()?)
        }
    };
    let (automaton, s) = timed(|| machine.automaton_for(encoding.tree()));
    let automaton = automaton.ok()?;
    t.materialize = s;
    let config = EngineConfig::with_threads(threads);
    let (artifact, s) =
        timed(|| compile_structured_dnnf_parallel(&automaton, encoding.tree(), &config));
    let artifact = artifact.ok()?;
    t.dsdnnf = s;
    let structure = Structure {
        tree_nodes: encoding.node_count(),
        automaton_states: automaton.state_count(),
        gates: artifact.size(),
        fragments: artifact.partition().fragments().len(),
    };
    Some((artifact, structure, t))
}

/// Runs `tasks` on `threads` scoped workers pulling from a shared index,
/// the way the session's pool spreads a batch (inline on one thread, as
/// the pool does). Each task returns its own layer times (timed with
/// [`thread_timed`]); returns the fan-out's CPU time, spawning included,
/// and the per-task layer times.
pub fn fan_out(
    tasks: usize,
    threads: usize,
    task: impl Fn(usize) -> LayerTimes + Sync,
) -> (f64, Vec<LayerTimes>) {
    let started = clock::process();
    if threads <= 1 || tasks <= 1 {
        let out = (0..tasks).map(&task).collect();
        return (clock::process() - started, out);
    }
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![LayerTimes::default(); tasks]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let times = task(i);
                out.lock().expect("no worker panics while holding the lock")[i] = times;
            });
        }
    });
    let cpu = clock::process() - started;
    (cpu, out.into_inner().expect("workers joined"))
}

/// Attributes a fan-out's CPU time to layers in proportion to the tasks'
/// own time, so per-call layer times add up to the direct replay's time.
pub fn attribute(cpu: f64, per_task: &[LayerTimes]) -> LayerTimes {
    let mut busy = LayerTimes::default();
    for t in per_task {
        busy.add(t);
    }
    let total = busy.total();
    if total <= 0.0 {
        return LayerTimes::default();
    }
    busy.scaled(cpu / total)
}

/// Limbs (64-bit words) of an exact answer's denominator.
pub fn limbs(p: &Rational) -> usize {
    p.denominator().bits().div_ceil(64).max(1)
}
