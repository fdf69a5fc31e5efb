//! Parallel bottom-up subtree compilation with a **bit-identical** output
//! contract.
//!
//! The Theorem 6.11 d-SDNNF construction and the evaluation passes over the
//! resulting circuit are bottom-up: disjoint subtrees are independent, and
//! only the "spine" of nodes above the chosen cut points sequentializes.
//! This module exploits that, without a construction of its own — the
//! automata crate's [`StructuredBuilder`] is the only code that knows the
//! leaf rule, the internal rule, the input validation and the output
//! assembly. What lives here is:
//!
//! 1. the plan: [`SubtreePlan`] cuts the tree into fragments of comparable
//!    size (one contiguous post-order segment each) plus the spine above
//!    them;
//! 2. the pool fan-out: worker threads (the pool in `pool`, one shared
//!    task cursor) run [`StructuredBuilder::compile_subtree`] from each cut
//!    into a local arena, unless the fragment library already holds that
//!    subtree;
//! 3. the replay: one whole-tree [`StructuredBuilder::compile`] on the
//!    caller's thread splices each fragment in when the post-order reaches
//!    its cut ([`replay_circuit`] / [`replay_vtree`]) and builds the spine
//!    itself.
//!
//! The determinism contract: because `Circuit` and `Vtree` are append-only
//! arenas and a subtree's nodes occupy a contiguous post-order segment, the
//! whole-tree build allocates a fragment's gates as one contiguous id block
//! that references only the block itself plus the two constant gates.
//! Replaying fragments at their cuts therefore reproduces the sequential
//! gate stream *byte for byte* — same gates, same ids, same operand order,
//! same output — at every thread count and for every choice of cuts, with
//! no iteration-order leakage (worker completion order never influences
//! ids; only the tree shape does). `tests` (including arbitrary cut sets)
//! and the umbrella `tests/parallel_differential.rs` pin this gate-by-gate
//! against [`treelineage_automata::compile_structured_dnnf`]; the umbrella
//! `tests/dsdnnf_golden.rs` pins both against recorded digests.
//!
//! Evaluation reuses the same partition: each fragment's gate range is
//! self-contained, so one private runner ([`ParallelDnnf::run`]) serves
//! every pass. It fills one flat [`LimbArena`] per call: in one ascending
//! sweep when the pass gets one worker, otherwise the spine below the first
//! fragment on the caller's thread, the fragments' contiguous slot ranges
//! ([`LimbArena::split`]) on the pool, then the spine gaps in place. The
//! exact passes — probability, WMC and model count — run the integer
//! [`Wmc`] rule in `u64` limb slots sized by a priori bit bounds, read off
//! the circuit's [`ScopeHull`], and reduce once per answer (fraction-free, see [`ParallelDnnf::wmc`]); the
//! certified interval passes keep one [`ErrorInterval`] slot per gate,
//! filled by the circuit crate's [`eval_gate`] step ([`Probability`],
//! [`Wmc`]). A gate's value depends only on its inputs' values and the
//! fixed operand order, so the result equals the sequential
//! [`Dnnf::evaluate`](treelineage_circuit::Dnnf::evaluate) bit for bit at
//! every thread count, floating-point intervals included.

use crate::pool::{lock_recovering, run_tasks, workers_for};
use crate::EngineConfig;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use treelineage_automata::{
    BinaryTree, CompiledSubtree, NodeAnnotation, NodeId, Run, StructuredBuilder, StructuredDnnf,
    StructuredDnnfError, SubtreeGates, TreeAutomaton, UncertainTree,
};
use treelineage_circuit::{
    eval_gate, ArenaRange, Circuit, Gate, GateId, LimbArena, Probability, ScopeHull, Semiring,
    Vtree, VtreeId, VtreeNode, Wmc,
};
use treelineage_num::limbs::{self, IntWeights};
use treelineage_num::{BigUint, ErrorInterval, Rational};
use treelineage_telemetry::Telemetry;

/// Fragments below this size are not worth a task of their own: the replay
/// and scheduling overhead would exceed the construction work.
const MIN_FRAGMENT_NODES: usize = 64;

/// Gates of fragment ranges per pool worker in [`ParallelDnnf::run`]: a
/// pass whose fragments hold fewer gates runs them on the caller's thread,
/// and each further multiple buys one more worker ([`workers_for`]). A
/// spawned scoped thread costs ~50 µs of CPU; 4,096 gates cost 0.2–1.9 ms
/// in an exact pass and 0.1–0.5 ms in an interval pass (EXPERIMENTS.md
/// §E-15). It stays below the 7,995 fragment gates of the 3×60 grid at two
/// threads, the smallest fragment-parallel pass of the `tables` binary's
/// `[E-7 scaling]` rows.
const EVAL_GATES_PER_WORKER: usize = 4096;

/// Tree nodes of dirty fragments per pool worker in [`compile_planned`],
/// on the same rule: 1,024 nodes cost 0.3–1.5 ms of fragment compile, 6–30
/// spawns' worth (EXPERIMENTS.md §E-15).
const COMPILE_NODES_PER_WORKER: usize = 1024;

/// A partition of the tree into disjoint subtrees ("fragments") plus the
/// spine of nodes above all cut points. Fragment roots are the cut points;
/// every node belongs to exactly one fragment or to the spine.
#[derive(Clone, Debug)]
pub(crate) struct SubtreePlan {
    /// Cut points (fragment roots), each owning its whole subtree.
    pub(crate) cuts: Vec<NodeId>,
    /// `owner[node] = Some(i)` if the node lies in fragment `i` (including
    /// its root), `None` for spine nodes.
    pub(crate) owner: Vec<Option<u32>>,
}

impl SubtreePlan {
    /// Cuts `tree` into at least two fragments of roughly
    /// `node_count / (threads * 4)` nodes each (never below
    /// [`MIN_FRAGMENT_NODES`]; `grain_override > 0` fixes the grain
    /// explicitly), or returns `None` when the tree is too small to be
    /// worth splitting. The plan depends only on the tree shape and the
    /// grain — never on scheduling — so the merge order is deterministic.
    pub(crate) fn cut(
        tree: &BinaryTree,
        threads: usize,
        grain_override: usize,
    ) -> Option<SubtreePlan> {
        let n = tree.node_count();
        if threads <= 1 {
            return None;
        }
        let grain = if grain_override > 0 {
            grain_override
        } else if n < 2 * MIN_FRAGMENT_NODES {
            return None;
        } else {
            // 4 fragments per worker gives the pool's shared cursor enough
            // slack to balance subtrees of unequal size.
            (n / (threads * 4)).max(MIN_FRAGMENT_NODES)
        };
        let mut sizes = vec![0usize; n];
        for node in tree.post_order() {
            sizes[node.0] = match tree.children(node) {
                None => 1,
                Some((l, r)) => 1 + sizes[l.0] + sizes[r.0],
            };
        }
        let mut cuts = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            if sizes[node.0] <= grain {
                cuts.push(node);
            } else {
                // Internal invariant: a node larger than the grain has
                // children (leaves have size 1 ≤ grain, as `grain ≥ 1`
                // on every branch above); it stays on the spine.
                let (l, r) = tree.children(node).expect("grain ≥ 1 keeps leaves cut");
                stack.push(r);
                stack.push(l);
            }
        }
        if cuts.len() < 2 {
            return None;
        }
        Some(SubtreePlan::new(tree, cuts))
    }

    /// The plan with the given cut points, which must form an antichain
    /// (no cut inside another's subtree); every other node is spine.
    fn new(tree: &BinaryTree, cuts: Vec<NodeId>) -> SubtreePlan {
        let mut owner: Vec<Option<u32>> = vec![None; tree.node_count()];
        for (index, &cut) in cuts.iter().enumerate() {
            for member in tree.post_order_from(cut) {
                debug_assert!(owner[member.0].is_none(), "cuts form an antichain");
                owner[member.0] = Some(index as u32);
            }
        }
        SubtreePlan { cuts, owner }
    }
}

/// The fragment ranges of a circuit produced by the parallel compiler: each
/// `[start, end)` gate-id range is *self-contained* — gates in the range
/// reference only the range itself plus the two global constant gates — so
/// evaluation passes can process ranges on independent threads.
#[derive(Clone, Debug, Default)]
pub struct CircuitPartition {
    fragments: Vec<(usize, usize)>,
}

impl CircuitPartition {
    /// The self-contained `[start, end)` gate ranges.
    pub fn fragments(&self) -> &[(usize, usize)] {
        &self.fragments
    }

    /// `true` when the partition carries no parallelizable range (the
    /// circuit was compiled sequentially); evaluation then runs in one
    /// pass on the caller's thread.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// A certified smooth d-SDNNF plus the fragment partition of its circuit:
/// the artifact of [`compile_structured_dnnf_parallel`]. Dereference to the
/// wrapped [`StructuredDnnf`] for the circuit/vtree accessors; the
/// evaluation methods here take a thread count and run the bottom-up pass
/// fragment-parallel (results equal the sequential pass bit for bit at
/// every thread count).
#[derive(Clone, Debug)]
pub struct ParallelDnnf {
    structured: StructuredDnnf,
    partition: CircuitPartition,
    /// Observes the evaluation passes (pool task counters, the
    /// `eval_fragments` span, `exact_limbs_total`); carried
    /// from the compiling config so cached artifacts keep reporting into
    /// the session's registry. Never influences any computed value.
    telemetry: Telemetry,
    /// The circuit's scope hull, which lays out the exact passes' arena;
    /// built by the first exact pass, so artifacts that only serve
    /// interval passes never pay for it.
    hull: OnceLock<ScopeHull>,
}

impl ParallelDnnf {
    /// Wraps a sequentially compiled artifact (empty partition: every
    /// evaluation runs sequentially; no telemetry sink).
    pub fn sequential(structured: StructuredDnnf) -> Self {
        ParallelDnnf {
            structured,
            partition: CircuitPartition::default(),
            telemetry: Telemetry::disabled(),
            hull: OnceLock::new(),
        }
    }

    /// Replaces the telemetry sink the evaluation passes record into.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The wrapped certified d-SDNNF.
    pub fn structured(&self) -> &StructuredDnnf {
        &self.structured
    }

    /// The fragment partition of the circuit.
    pub fn partition(&self) -> &CircuitPartition {
        &self.partition
    }

    /// Number of gates of the circuit.
    pub fn size(&self) -> usize {
        self.structured.size()
    }

    /// Acceptance probability under independent event probabilities,
    /// fraction-free: event `v` with `P(v) = a/b` weighs `a` as a positive
    /// literal and `b - a` as a negative one, and one integer [`Wmc`] pass
    /// divided by `∏ b` gives the answer (see [`ParallelDnnf::wmc`]). Equal
    /// to the `Rational`
    /// [`Dnnf::probability`](treelineage_circuit::Dnnf::probability).
    /// `prob` may return the probability owned or borrowed (`&Rational`,
    /// which spares a clone per event).
    pub fn probability<R: Borrow<Rational>>(
        &self,
        prob: &(dyn Fn(usize) -> R + Sync),
        threads: usize,
    ) -> Rational {
        self.fraction_free(
            "probability",
            threads,
            &|weights, v| weights.push_probability(prob(v).borrow()),
            IntWeights::ratio,
        )
    }

    /// Weighted model count with general per-literal weights, fraction-free:
    /// event `v`'s weights are scaled by `c = lcm(den pos(v), den neg(v))`
    /// into integers, one integer [`Wmc`] pass runs on the fragment-parallel
    /// arena runner, and the integer result divided by `∏ c` over the
    /// universe is the answer — the only gcd of the call. Sound because the
    /// circuit is smooth and its output mentions every universe event (or
    /// is `Const(false)`), which the [`StructuredDnnf`] invariant
    /// guarantees. Equal to the `Rational`
    /// [`Dnnf::wmc`](treelineage_circuit::Dnnf::wmc). The weights may be
    /// owned or borrowed, as in [`ParallelDnnf::probability`].
    pub fn wmc<R: Borrow<Rational>>(
        &self,
        pos: &(dyn Fn(usize) -> R + Sync),
        neg: &(dyn Fn(usize) -> R + Sync),
        threads: usize,
    ) -> Rational {
        self.fraction_free(
            "wmc",
            threads,
            &|weights, v| weights.push_weights(pos(v).borrow(), neg(v).borrow()),
            IntWeights::ratio,
        )
    }

    /// Number of accepting event valuations: the integer [`Wmc`] pass with
    /// unit weights and scale 1 (one pass thanks to
    /// smoothness-by-construction).
    pub fn model_count(&self, threads: usize) -> BigUint {
        self.fraction_free(
            "count",
            threads,
            &|weights, _| weights.push_unit(),
            |_, count| limbs::to_biguint(count),
        )
    }

    /// The integer pass behind [`ParallelDnnf::probability`],
    /// [`ParallelDnnf::wmc`] and [`ParallelDnnf::model_count`]: `push` adds
    /// each event's integer weights in the rank order of the circuit's
    /// [`ScopeHull`] (built on the first call); one [`LimbArena`] is laid
    /// out from the hull and the weights' prefix bit sums and filled by
    /// [`ParallelDnnf::run`] with the integer [`Wmc`] rule, each literal
    /// reading the weights at its rank; `answer` reads the output slot.
    /// Records the arena's size as `exact_limbs_total{pass}`.
    fn fraction_free<T>(
        &self,
        pass: &str,
        threads: usize,
        push: &dyn Fn(&mut IntWeights, usize),
        answer: impl FnOnce(&IntWeights, &[u64]) -> T,
    ) -> T {
        let circuit = self.structured.dnnf().circuit();
        let hull = self.hull.get_or_init(|| {
            let hull = ScopeHull::new(circuit);
            // The one division by the events' scales is exact when the
            // output mentions every universe event (smoothness), so the
            // hull's events are the universe, or the output is false.
            debug_assert!(
                circuit.gate(circuit.output()) == Gate::Const(false) || {
                    let mut vars = hull.vars().to_vec();
                    vars.sort_unstable();
                    vars == self.structured.universe()
                }
            );
            hull
        });
        let mut weights = IntWeights::with_capacity(hull.vars().len());
        for &v in hull.vars() {
            push(&mut weights, v);
        }
        let mut arena = LimbArena::exact(hull, &weights);
        self.run(&mut arena, threads, &|id, out, input| {
            limb_step(circuit, id, out, input, |positive| {
                weights.literal(hull.scope(id).start, positive)
            })
        });
        self.telemetry.counter_add(
            "exact_limbs_total",
            &[("pass", pass)],
            arena.limb_count() as u64,
        );
        answer(&weights, arena.value(circuit.output()))
    }

    /// The float fast-path of [`ParallelDnnf::probability`]: the same pass
    /// over certified [`ErrorInterval`]s, guaranteed to contain the exact
    /// rational answer and identical at every thread count.
    pub fn probability_interval(
        &self,
        prob: &(dyn Fn(usize) -> ErrorInterval + Sync),
        threads: usize,
    ) -> ErrorInterval {
        self.interval(&Probability(prob), threads)
    }

    /// The float fast-path of [`ParallelDnnf::wmc`], with the same
    /// containment and thread-count-independence guarantees as
    /// [`ParallelDnnf::probability_interval`].
    pub fn wmc_interval(
        &self,
        pos: &(dyn Fn(usize) -> ErrorInterval + Sync),
        neg: &(dyn Fn(usize) -> ErrorInterval + Sync),
        threads: usize,
    ) -> ErrorInterval {
        self.interval(&Wmc { pos, neg }, threads)
    }

    /// The interval passes: one [`ErrorInterval`] slot per gate, filled by
    /// [`ParallelDnnf::run`] with the circuit crate's [`eval_gate`] step
    /// over `semiring`, so each gate's interval is the one
    /// [`Dnnf::evaluate`](treelineage_circuit::Dnnf::evaluate) computes, bit
    /// for bit.
    fn interval<S>(&self, semiring: &S, threads: usize) -> ErrorInterval
    where
        S: Semiring<Value = ErrorInterval> + Sync,
    {
        let circuit = self.structured.dnnf().circuit();
        let mut arena = LimbArena::per_gate(circuit.size(), ErrorInterval::zero());
        self.run(&mut arena, threads, &|id, out, input| {
            out[0] = eval_gate(semiring, circuit, id, |i| &input(i)[0]);
        });
        arena.value(circuit.output())[0]
    }

    /// The fragment runner of every pass: fills `arena` bottom-up with
    /// `step`. A pass gets one pool worker per [`EVAL_GATES_PER_WORKER`]
    /// gates in the fragment ranges, up to `threads`; with one worker it is
    /// one ascending sweep over the gate ids on the caller's thread (each
    /// gate reads only lower ids). Otherwise the spine below the first
    /// fragment (the constants every fragment reads) runs first, then the
    /// self-contained fragment ranges on the workers, each in its own slot
    /// range, under one `eval_fragments` span, then the spine gaps in
    /// place. A gate's value depends only on its inputs' values and the
    /// fixed operand order, so the result is the same at every thread
    /// count.
    fn run<T: Copy + Send + Sync>(
        &self,
        arena: &mut LimbArena<T>,
        threads: usize,
        step: &(impl for<'x> Fn(GateId, &mut [T], &'x dyn Fn(GateId) -> &'x [T]) + Sync),
    ) {
        let size = self.structured.size();
        let fragments = &self.partition.fragments;
        let gates = fragments.iter().map(|&(start, end)| end - start).sum();
        let workers = workers_for(threads, fragments.len(), gates, EVAL_GATES_PER_WORKER);
        if workers <= 1 {
            arena.eval(0..size, step);
            return;
        }
        let mut next = fragments[0].0;
        arena.eval(0..next, step);
        let ranges: Vec<Mutex<ArenaRange<'_, T>>> =
            arena.split(fragments).into_iter().map(Mutex::new).collect();
        let telemetry = &self.telemetry;
        let mut span = telemetry.span("eval_fragments");
        span.label("fragments", ranges.len());
        span.label("gates", gates);
        span.label("workers", workers);
        run_tasks(workers, ranges.len(), telemetry, |fi| {
            lock_recovering(&ranges[fi]).eval(step);
        });
        drop(span);
        drop(ranges);
        for &(start, end) in fragments {
            arena.eval(next..start, step);
            next = end;
        }
        arena.eval(next..size, step);
    }
}

/// The gate step of the exact passes: [`eval_gate`]'s dispatch with the
/// integer [`Wmc`] rule, writing gate `id`'s two's-complement value into
/// its limb slot `out`; `literal(positive)` gives the integer weight of
/// the positive or negative literal gate `id` is.
///
/// `#[inline]` lets every codegen unit inline it into the pass's step
/// closure, and with it the `input` lookups of `eval_slots`. Without it,
/// whether it is inlined depends on how the crate's items fall into codegen
/// units, which unrelated upstream edits reshuffle: one such build ran
/// perfbench `serve_exact` ~20% slower on a 2-vCPU host.
#[inline]
fn limb_step<'a, 'w>(
    circuit: &Circuit,
    id: GateId,
    out: &mut [u64],
    input: &dyn Fn(GateId) -> &'a [u64],
    literal: impl Fn(bool) -> &'w [u64],
) {
    match circuit.gate(id) {
        Gate::Var(_) => limbs::copy(out, literal(true)),
        Gate::Const(b) => limbs::set_bool(out, b),
        Gate::Not(i) => match circuit.gate(i) {
            Gate::Var(_) => limbs::copy(out, literal(false)),
            Gate::Const(b) => limbs::set_bool(out, !b),
            // Internal invariant: every `Dnnf` constructor rejects a
            // negation of an internal gate, so a `Not` reads a literal or
            // a constant.
            _ => unreachable!("d-DNNFs negate inputs only"),
        },
        Gate::And(inputs) => match inputs.split_first() {
            None => limbs::set_bool(out, true),
            Some((&first, rest)) => {
                limbs::copy(out, input(first));
                for &i in rest {
                    limbs::mul_assign(out, input(i));
                }
            }
        },
        Gate::Or(inputs) => {
            out.fill(0);
            for &i in inputs {
                limbs::add_assign(out, input(i));
            }
        }
    }
}

/// The full post-order content of a fragment subtree — `(label, is-leaf,
/// event annotation)` per node. Two subtrees with equal keys have equal
/// shape, labels and events, so [`StructuredBuilder::compile_subtree`]
/// produces byte-identical output for them (its gate stream is a pure
/// function of this content and the run's steps there, which the query
/// machine's memoized transitions fix). Keys are compared in full — no hash
/// shortcut decides reuse.
type FragmentKey = Vec<(usize, bool, Option<(usize, usize, usize)>)>;

fn fragment_key(tree: &UncertainTree, root: NodeId) -> FragmentKey {
    tree.tree()
        .post_order_from(root)
        .into_iter()
        .map(|node| {
            let annotation = match tree.annotation(node) {
                NodeAnnotation::Fixed => None,
                NodeAnnotation::Event {
                    event,
                    if_true,
                    if_false,
                } => Some((event, if_true, if_false)),
            };
            (
                tree.tree().label(node),
                tree.tree().is_leaf(node),
                annotation,
            )
        })
        .collect()
}

/// Compiled fragments of one artifact, keyed by subtree content: the unit
/// of reuse for incremental recompilation. After an update, fragments whose
/// post-order content (shape, labels, events) is unchanged hit the library
/// and skip compilation entirely; only dirty fragments recompile, and the
/// deterministic merge replays as usual. Validity is the caller's
/// contract: a library may only be replayed against the *same* compiled
/// query machine that produced it (state numbering is machine-history
/// dependent) — the session layer guards it, and the builder rejects a
/// fragment whose root states are not the run's reach list there.
#[derive(Clone, Default)]
pub(crate) struct FragmentLibrary {
    fragments: HashMap<FragmentKey, Arc<CompiledSubtree>>,
}

impl FragmentLibrary {
    /// Number of fragments held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fragments.len()
    }
}

/// How much of a cached compile was reused vs recompiled — the dirty-set
/// accounting behind the session's `fragments_recompiled` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RecompileStats {
    /// Fragments in the plan (0 for a sequential compile).
    pub(crate) total: usize,
    /// Fragments served from the library.
    pub(crate) reused: usize,
    /// Fragments compiled fresh (dirty, or no library offered).
    pub(crate) recompiled: usize,
}

/// The artifact of [`compile_with_pool_cached`]: the compiled d-SDNNF, the
/// fragment library to seed the *next* incremental compile with, and the
/// reuse accounting.
pub(crate) struct CachedCompile {
    pub(crate) artifact: ParallelDnnf,
    pub(crate) library: FragmentLibrary,
    pub(crate) stats: RecompileStats,
}

/// Compiles the provenance of a deterministic automaton on an uncertain
/// tree into a certified smooth d-SDNNF, splitting the tree into disjoint
/// subtrees compiled on `config.threads` worker threads. The output is
/// byte-identical to [`treelineage_automata::compile_structured_dnnf`] at
/// every thread count (see the module docs for why); with `threads <= 1` or
/// a small tree it simply delegates to the sequential compiler.
pub fn compile_structured_dnnf_parallel(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
) -> Result<ParallelDnnf, StructuredDnnfError> {
    let run = Run::from_automaton(automaton, tree)?;
    compile_with_pool_cached(&run, tree, config, config.threads, None).map(|c| c.artifact)
}

/// [`compile_structured_dnnf_parallel`] from a [`Run`], with the fragment
/// *plan* (`config.threads`) decoupled from the worker pool actually used
/// (`pool_threads`), and with fragment reuse. The session layer compiles
/// with `pool_threads = 1` when a batch already saturates the pool with one
/// task per (query, instance) pair — the cached artifact still carries the
/// partition its session-level thread count plans for, so later
/// lone-request batches get fragment-parallel evaluation. Fragments of
/// `previous` whose subtree content is unchanged are replayed instead of
/// recompiled. The output is **byte-identical** either way (same gates,
/// ids, operand order, vtree): the plan, not the pool or the library,
/// determines every id. Preconditions on `previous` (enforced by the
/// session layer): it was produced by this function against the same
/// compiled query machine.
/// Without a plan the whole tree compiles on the caller's thread under a
/// `dsdnnf_compile` span.
pub(crate) fn compile_with_pool_cached(
    run: &Run,
    tree: &UncertainTree,
    config: &EngineConfig,
    pool_threads: usize,
    previous: Option<&FragmentLibrary>,
) -> Result<CachedCompile, StructuredDnnfError> {
    let telemetry = &config.telemetry;
    let builder = StructuredBuilder::new(run, tree)?;
    match SubtreePlan::cut(tree.tree(), config.threads, config.fragment_grain) {
        Some(plan) => compile_planned(&builder, &plan, telemetry, pool_threads, previous),
        None => {
            let _span = telemetry.span("dsdnnf_compile");
            builder.compile(|_, _, _| None).map(|s| CachedCompile {
                artifact: ParallelDnnf::sequential(s).with_telemetry(telemetry.clone()),
                library: FragmentLibrary::default(),
                stats: RecompileStats::default(),
            })
        }
    }
}

/// Compiles along `plan`: each cut's subtree with
/// [`StructuredBuilder::compile_subtree`] on the pool (one worker per
/// [`COMPILE_NODES_PER_WORKER`] dirty nodes; below that, in order on the
/// caller's thread) or from `previous`, then one whole-tree
/// [`StructuredBuilder::compile`] on the caller's thread that splices every
/// fragment in at its cut.
fn compile_planned(
    builder: &StructuredBuilder<'_>,
    plan: &SubtreePlan,
    telemetry: &Telemetry,
    pool_threads: usize,
    previous: Option<&FragmentLibrary>,
) -> Result<CachedCompile, StructuredDnnfError> {
    // Phase 1: fragments, in parallel — but first settle, per cut, whether
    // the library already holds this subtree's compile. The key is the full
    // post-order content, so a hit is exactly "this subtree is untouched".
    let keys: Vec<FragmentKey> = plan
        .cuts
        .iter()
        .map(|&cut| fragment_key(builder.tree(), cut))
        .collect();
    let cached: Vec<Option<Arc<CompiledSubtree>>> = keys
        .iter()
        .map(|key| previous.and_then(|lib| lib.fragments.get(key).cloned()))
        .collect();
    let dirty: Vec<usize> = (0..plan.cuts.len())
        .filter(|&i| cached[i].is_none())
        .collect();
    let stats = RecompileStats {
        total: plan.cuts.len(),
        reused: plan.cuts.len() - dirty.len(),
        recompiled: dirty.len(),
    };

    // Only dirty fragments hit the pool. Results land in dirty order, so
    // nothing downstream depends on completion order.
    let compiled: Vec<CompiledSubtree> = {
        let mut span = telemetry.span("dsdnnf_fragments");
        span.label("fragments", plan.cuts.len());
        span.label("reused", stats.reused);
        // A key lists its subtree's nodes, so its length is the size.
        let nodes = dirty.iter().map(|&i| keys[i].len()).sum();
        let workers = workers_for(pool_threads, dirty.len(), nodes, COMPILE_NODES_PER_WORKER);
        span.label("workers", workers);
        run_tasks(workers, dirty.len(), telemetry, |j| {
            builder.compile_subtree(plan.cuts[dirty[j]], |_, _, _| None)
        })
        .into_iter()
        .collect::<Result<_, _>>()?
    };
    let mut compiled = compiled.into_iter();
    // Internal invariant: `run_tasks` returns one result per dirty cut, and
    // the dirty cuts are exactly the empty slots.
    let fragments: Vec<Arc<CompiledSubtree>> = cached
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Arc::new(compiled.next().expect("one per dirty cut"))))
        .collect();

    // Phase 2: deterministic merge — the whole-tree build, replaying each
    // fragment when the post-order reaches its cut.
    let _merge_span = telemetry.span("dsdnnf_merge");
    let mut partition = CircuitPartition::default();
    let structured = builder.compile(|node, circuit, vtree| {
        let index = plan.owner[node.0]? as usize;
        debug_assert_eq!(
            plan.cuts[index], node,
            "a cut is entered before its interior"
        );
        let fragment = &fragments[index];
        let gate_offset = circuit.size();
        replay_circuit(circuit, &fragment.circuit);
        partition.fragments.push((gate_offset, circuit.size()));
        let vtree_offset = vtree.node_count();
        replay_vtree(vtree, &fragment.vtree);
        // Root gates list live states only, so a library fragment needs no
        // padding for states the automaton has interned since.
        Some(SubtreeGates {
            gates: fragment
                .root
                .gates
                .iter()
                .map(|&(q, g)| (q, relocate(g, gate_offset)))
                .collect(),
            vnode: fragment.root.vnode.map(|v| VtreeId(vtree_offset + v.0)),
        })
    })?;
    Ok(CachedCompile {
        artifact: ParallelDnnf {
            structured,
            partition,
            telemetry: telemetry.clone(),
            hull: OnceLock::new(),
        },
        library: FragmentLibrary {
            fragments: keys.into_iter().zip(fragments).collect(),
        },
        stats,
    })
}

/// Where a fragment's local gate lands in the global circuit once replayed
/// at `offset`: the two constants are global, every other gate shifts.
fn relocate(g: GateId, offset: usize) -> GateId {
    if g.0 < 2 {
        g
    } else {
        GateId(offset + g.0 - 2)
    }
}

/// Replays a fragment's gates (skipping its two local constants) into the
/// global circuit. Allocation order is preserved, so the fragment's gate
/// `i ≥ 2` lands at global id `offset + i - 2` — exactly where the
/// sequential construction would have put it.
fn replay_circuit(global: &mut Circuit, fragment: &Circuit) {
    let offset = global.size();
    let map = |g: GateId| relocate(g, offset);
    // One relocated input list, reused for every AND/OR gate.
    let mut mapped: Vec<GateId> = Vec::new();
    for id in 2..fragment.size() {
        let gate = fragment.gate(GateId(id));
        if let Gate::And(inputs) | Gate::Or(inputs) = gate {
            mapped.clear();
            mapped.extend(inputs.iter().map(|&i| map(i)));
        }
        let new_id = match gate {
            // Fragment events are globally unique, so `var` always
            // allocates (the memo can never hit across fragments).
            Gate::Var(v) => global.var(v),
            // Internal invariant: `compile_subtree` allocates a
            // fragment's two constants first, and the loop skips them.
            Gate::Const(_) => unreachable!("fragments hold constants only at ids 0 and 1"),
            Gate::Not(i) => global.not(map(i)),
            Gate::And(_) => global.and(&mapped),
            Gate::Or(_) => global.or(&mapped),
        };
        debug_assert_eq!(new_id, map(GateId(id)));
    }
}

/// Replays a fragment's vtree nodes into the global vtree (append-only, so
/// local node `i` lands at global id `offset + i`; leaf spans stay adjacent
/// because leaves are appended in the same order).
fn replay_vtree(global: &mut Vtree, fragment: &Vtree) {
    let offset = global.node_count();
    for i in 0..fragment.node_count() {
        match fragment.node(VtreeId(i)) {
            VtreeNode::Leaf(v) => global.leaf(v),
            VtreeNode::Internal(l, r) => {
                global.internal(VtreeId(offset + l.0), VtreeId(offset + r.0))
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_automata::{compile_structured_dnnf, strategies};
    use treelineage_circuit::{Count, Dnnf};
    use treelineage_num::{BigInt, Sign};

    /// Gate-by-gate equality (ids, kinds, operand order, output) plus vtree
    /// node equality — the byte-identity contract.
    fn assert_identical(parallel: &ParallelDnnf, sequential: &StructuredDnnf) {
        let pc = parallel.structured().dnnf().circuit();
        let sc = sequential.dnnf().circuit();
        assert_eq!(pc.size(), sc.size());
        for id in pc.gate_ids() {
            assert_eq!(pc.gate(id), sc.gate(id), "gate {id:?}");
        }
        assert_eq!(pc.output(), sc.output());
        let pv = parallel.structured().vtree();
        let sv = sequential.vtree();
        assert_eq!(pv.node_count(), sv.node_count());
        for i in 0..pv.node_count() {
            assert_eq!(pv.node(VtreeId(i)), sv.node(VtreeId(i)), "vtree node {i}");
        }
        assert_eq!(pv.root(), sv.root());
        assert_eq!(parallel.structured().universe(), sequential.universe());
    }

    /// A deep uncertain comb with every leaf controlled by its own event —
    /// large enough to be cut into several fragments.
    fn big_comb(n: usize) -> UncertainTree {
        let tree = BinaryTree::comb(&vec![0; n], 2);
        let mut u = UncertainTree::certain(tree);
        let mut event = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(NodeId(node)) {
                u.set_event(NodeId(node), event, 1, 0);
                event += 1;
            }
        }
        u
    }

    #[test]
    fn plan_covers_every_node_exactly_once() {
        let tree = BinaryTree::comb(&vec![0; 400], 2);
        let plan = SubtreePlan::cut(&tree, 4, 0).expect("big tree must split");
        assert!(plan.cuts.len() >= 2);
        let mut covered = 0usize;
        for cut in &plan.cuts {
            covered += tree.post_order_from(*cut).len();
        }
        let spine = plan.owner.iter().filter(|o| o.is_none()).count();
        assert_eq!(covered + spine, tree.node_count());
        // Cut roots own themselves; spine nodes own nothing.
        for (i, cut) in plan.cuts.iter().enumerate() {
            assert_eq!(plan.owner[cut.0], Some(i as u32));
        }
    }

    #[test]
    fn small_trees_fall_back_to_sequential() {
        assert!(SubtreePlan::cut(&BinaryTree::comb(&[0, 1, 0], 2), 8, 0).is_none());
        let u = big_comb(3);
        let automaton = treelineage_automata::parity_automaton(2);
        let p = compile_structured_dnnf_parallel(&automaton, &u, &EngineConfig::with_threads(8))
            .unwrap();
        assert!(p.partition().is_empty());
    }

    #[test]
    fn parallel_compile_is_byte_identical_on_combs() {
        let automaton = treelineage_automata::parity_automaton(2);
        for n in [200usize, 333, 1000] {
            let u = big_comb(n);
            let sequential = compile_structured_dnnf(&automaton, &u).unwrap();
            for threads in [2usize, 3, 8] {
                let config = EngineConfig::with_threads(threads);
                let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
                assert!(!parallel.partition().is_empty(), "n={n} threads={threads}");
                assert_identical(&parallel, &sequential);
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_exactly() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(500);
        let config = EngineConfig::with_threads(4);
        let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
        let sequential = compile_structured_dnnf(&automaton, &u).unwrap();
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 7 + 2);
        let neg = |e: usize| Rational::from_ratio_u64(1, e as u64 % 5 + 1);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                parallel.probability(&prob, threads),
                sequential.probability(&prob)
            );
            assert_eq!(
                parallel.wmc(&prob, &neg, threads),
                sequential.wmc(&prob, &neg)
            );
            assert_eq!(parallel.model_count(threads), sequential.model_count());
        }
    }

    #[test]
    fn interval_pass_contains_exact_and_is_thread_count_invariant() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(500);
        let config = EngineConfig::with_threads(4);
        let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 7 + 2);
        let neg = |e: usize| Rational::from_ratio_u64(1, e as u64 % 5 + 1);
        let exact_p = parallel.probability(&prob, 1);
        let exact_w = parallel.wmc(&prob, &neg, 1);
        let iv = |f: &dyn Fn(usize) -> Rational, e: usize| ErrorInterval::from_rational(&f(e));
        let base_p = parallel.probability_interval(&|e| iv(&prob, e), 1);
        let base_w = parallel.wmc_interval(&|e| iv(&prob, e), &|e| iv(&neg, e), 1);
        assert!(base_p.contains(&exact_p));
        assert!(base_w.contains(&exact_w));
        let bits = |i: ErrorInterval| (i.lo().to_bits(), i.hi().to_bits());
        // Golden endpoints: any change to the per-gate interval arithmetic
        // or its operand order moves these bits.
        assert_eq!(
            (bits(base_p), bits(base_w)),
            (GOLDEN_PROBABILITY_BITS, GOLDEN_WMC_BITS)
        );
        let dnnf = parallel.structured().dnnf();
        let seq_p = dnnf.probability_interval(&|e| iv(&prob, e));
        let seq_w = dnnf.wmc_interval(&|e| iv(&prob, e), &|e| iv(&neg, e));
        for threads in [1usize, 2, 8] {
            // Bit-identical endpoints at every thread count and against the
            // sequential runner: each gate's interval depends only on its
            // inputs and the operand order, never on the executing thread.
            let p = parallel.probability_interval(&|e| iv(&prob, e), threads);
            let w = parallel.wmc_interval(&|e| iv(&prob, e), &|e| iv(&neg, e), threads);
            assert_eq!(bits(p), bits(seq_p), "threads={threads}");
            assert_eq!(bits(w), bits(seq_w), "threads={threads}");
        }

        // `Not(Const)`: probability instances complement the constant's
        // value (`1 ⊖ [1, 1]` rounds outward, so it is not `zero()`), while
        // the WMC and count instances read `constant(!b)`.
        let lineage = not_const_lineage();
        let dnnf = lineage.structured().dnnf();
        let p = Rational::from_ratio_u64(1, 3);
        let q = Rational::from_ratio_u64(3, 5);
        let (pi, qi) = (
            ErrorInterval::from_rational(&p),
            ErrorInterval::from_rational(&q),
        );
        let one = ErrorInterval::one;
        let zero = ErrorInterval::zero;
        let want_p = zero()
            .add(&one().mul(&pi).mul(&zero().complement()))
            .add(&one().mul(&pi.complement()).mul(&one().complement()));
        let want_w = zero()
            .add(&one().mul(&pi).mul(&one()))
            .add(&one().mul(&qi).mul(&zero()));
        assert_ne!(bits(want_p), bits(want_w));
        assert_eq!(dnnf.probability(&|_| p.clone()), p);
        assert_eq!(dnnf.wmc(&|_| p.clone(), &|_| q.clone()), p);
        assert_eq!(dnnf.count_models_smooth(), BigUint::one());
        assert_eq!(bits(dnnf.probability_interval(&|_| pi)), bits(want_p));
        assert_eq!(bits(dnnf.wmc_interval(&|_| pi, &|_| qi)), bits(want_w));
        for threads in [1usize, 2, 8] {
            assert_eq!(lineage.probability(&|_| p.clone(), threads), p);
            assert_eq!(lineage.wmc(&|_| p.clone(), &|_| q.clone(), threads), p);
            assert_eq!(lineage.model_count(threads), BigUint::one());
            let got_p = lineage.probability_interval(&|_| pi, threads);
            let got_w = lineage.wmc_interval(&|_| pi, &|_| qi, threads);
            assert_eq!(bits(got_p), bits(want_p), "threads={threads}");
            assert_eq!(bits(got_w), bits(want_w), "threads={threads}");
        }
    }

    /// `x ∧ ¬false ∨ ¬x ∧ ¬true` over universe {0}: a smooth d-DNNF
    /// equivalent to `x` with both kinds of `Not(Const)` gate.
    fn not_const_lineage() -> ParallelDnnf {
        let mut c = Circuit::new();
        let x = c.var(0);
        let t = c.constant(true);
        let f = c.constant(false);
        let nx = c.not(x);
        let nt = c.not(t);
        let nf = c.not(f);
        let left = c.and(vec![x, nf]);
        let right = c.and(vec![nx, nt]);
        let out = c.or(vec![left, right]);
        c.set_output(out);
        ParallelDnnf::sequential(StructuredDnnf::from_trusted_parts(
            Dnnf::from_trusted_circuit(c).unwrap(),
            Vtree::new(),
            vec![0],
        ))
    }

    /// `¬true ∨ ((x ∨ ¬x) ∧ y ∧ ¬z)` over universe {0, 1, 2}: smooth but
    /// for the constant-false input of the output OR, which has no models,
    /// so its empty scope does not matter to a weighted count. Its bit
    /// bound (0) is below its sibling's: an OR's slot must take the max.
    fn false_input_lineage() -> ParallelDnnf {
        let mut c = Circuit::new();
        let t = c.constant(true);
        let nt = c.not(t);
        let (x, y, z) = (c.var(0), c.var(1), c.var(2));
        let nx = c.not(x);
        let nz = c.not(z);
        let either = c.or(vec![x, nx]);
        let all = c.and(vec![either, y, nz]);
        let out = c.or(vec![nt, all]);
        c.set_output(out);
        ParallelDnnf::sequential(StructuredDnnf::from_trusted_parts(
            Dnnf::from_trusted_circuit(c).unwrap(),
            Vtree::new(),
            vec![0, 1, 2],
        ))
    }

    /// `(x ∨ ¬x) ∧ (y ∧ ¬false ∨ ¬y ∧ ¬true)` over universe {0, 1}, cut
    /// into two fragments after the constants: `x ∨ ¬x`, and the `y` part,
    /// which reads both constants. Probability intervals complement the
    /// constants' slots, so a fan-out must evaluate the constants first.
    fn partitioned_const_lineage() -> ParallelDnnf {
        let mut c = Circuit::new();
        let f = c.constant(false);
        let t = c.constant(true);
        let x = c.var(0);
        let nx = c.not(x);
        let either = c.or(vec![x, nx]);
        let y = c.var(1);
        let nf = c.not(f);
        let left = c.and(vec![y, nf]);
        let ny = c.not(y);
        let nt = c.not(t);
        let right = c.and(vec![ny, nt]);
        let y_part = c.or(vec![left, right]);
        let out = c.and(vec![either, y_part]);
        c.set_output(out);
        ParallelDnnf {
            structured: StructuredDnnf::from_trusted_parts(
                Dnnf::from_trusted_circuit(c).unwrap(),
                Vtree::new(),
                vec![0, 1],
            ),
            partition: CircuitPartition {
                fragments: vec![(x.0, either.0 + 1), (y.0, y_part.0 + 1)],
            },
            telemetry: Telemetry::disabled(),
            hull: OnceLock::new(),
        }
    }

    /// `(lo, hi)` bit patterns of the interval passes on the parity comb of
    /// [`interval_pass_contains_exact_and_is_thread_count_invariant`].
    const GOLDEN_PROBABILITY_BITS: (u64, u64) = (4602678819172644415, 4602678819172648856);
    const GOLDEN_WMC_BITS: (u64, u64) = (3156044929159401120, 3156044929159405897);

    #[test]
    fn validation_errors_match_sequential() {
        let nta = treelineage_automata::exists_one_automaton(2);
        let u = big_comb(300);
        let config = EngineConfig::with_threads(4);
        assert_eq!(
            compile_structured_dnnf_parallel(&nta, &u, &config).unwrap_err(),
            StructuredDnnfError::NondeterministicAutomaton
        );
        let automaton = treelineage_automata::parity_automaton(2);
        let mut shared = big_comb(300);
        // Give two leaves the same event: rejected with the same error.
        let leaves: Vec<NodeId> = (0..shared.tree().node_count())
            .map(NodeId)
            .filter(|&n| shared.tree().is_leaf(n))
            .collect();
        shared.set_event(leaves[7], 3, 1, 0);
        assert_eq!(
            compile_structured_dnnf_parallel(&automaton, &shared, &config).unwrap_err(),
            compile_structured_dnnf(&automaton, &shared).unwrap_err()
        );
    }

    /// A leaf owned by some fragment of the plan (not on the spine).
    fn fragment_leaf(u: &UncertainTree, plan: &SubtreePlan) -> NodeId {
        (0..u.tree().node_count())
            .map(NodeId)
            .find(|&n| u.tree().is_leaf(n) && plan.owner[n.0].is_some())
            .expect("a multi-fragment plan owns some leaf")
    }

    #[test]
    fn a_touched_node_dirties_exactly_its_owning_fragment() {
        let u = big_comb(400);
        let plan = SubtreePlan::cut(u.tree(), 4, 0).expect("big tree must split");
        let leaf = fragment_leaf(&u, &plan);
        let owner = plan.owner[leaf.0].unwrap() as usize;
        let before: Vec<FragmentKey> = plan.cuts.iter().map(|&c| fragment_key(&u, c)).collect();
        let mut mutated = u.clone();
        mutated.set_event(leaf, 9999, 1, 0);
        let after: Vec<FragmentKey> = plan
            .cuts
            .iter()
            .map(|&c| fragment_key(&mutated, c))
            .collect();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b == a, i != owner, "fragment {i}");
        }
    }

    #[test]
    fn cached_recompile_is_byte_identical_and_reuses_untouched_fragments() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(400);
        let config = EngineConfig::with_threads(4);
        let run = Run::from_automaton(&automaton, &u).unwrap();
        let first = compile_with_pool_cached(&run, &u, &config, 4, None).unwrap();
        let total = first.stats.total;
        assert!(total >= 2);
        assert_eq!(first.stats.reused, 0);
        assert_eq!(first.stats.recompiled, total);
        assert_eq!(first.library.len(), total);

        // Replaying the library against the unchanged tree is zero-dirty and
        // still byte-identical.
        let replay = compile_with_pool_cached(&run, &u, &config, 4, Some(&first.library)).unwrap();
        assert_eq!(replay.stats.recompiled, 0);
        assert_eq!(replay.stats.reused, total);
        assert_identical(
            &replay.artifact,
            &compile_structured_dnnf(&automaton, &u).unwrap(),
        );

        // Touch one fragment-owned leaf: exactly one fragment recompiles,
        // and the result equals a cold compile of the mutated tree.
        let plan = SubtreePlan::cut(u.tree(), 4, 0).unwrap();
        let leaf = fragment_leaf(&u, &plan);
        let mut mutated = u.clone();
        mutated.set_event(leaf, 9999, 1, 0);
        let mutated_run = Run::from_automaton(&automaton, &mutated).unwrap();
        let second =
            compile_with_pool_cached(&mutated_run, &mutated, &config, 4, Some(&first.library))
                .unwrap();
        assert_eq!(second.stats.recompiled, 1);
        assert_eq!(second.stats.reused, total - 1);
        assert_identical(
            &second.artifact,
            &compile_structured_dnnf(&automaton, &mutated).unwrap(),
        );
    }

    /// Probabilities with every corner of the fraction-free weights: `0`
    /// and `1` (a zero positive or negative integer weight) and mixed
    /// denominators; then the limb boundaries of the arena: denominators
    /// of exactly `2^63` and `2^64` (`|pos| + |neg|` a power of two, where
    /// the slot bound is attained and a slot without its sign bit
    /// overflows), and numerators and denominators near `2^32`, `2^63` and
    /// `2^64`.
    const PROBABILITIES: [(i128, u128); ALL] = [
        (0, 1),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 5),
        (3, 4),
        (7, 12),
        (9, 10),
        (1, 1 << 63),
        ((1 << 62) + 1, 1 << 63),
        (3, 1 << 64),
        ((1 << 32) - 1, (1 << 32) + 1),
        ((1 << 32) + 3, 1 << 33),
        ((1 << 63) - 25, (1 << 63) + 1),
        (u64::MAX as i128 - 58, u64::MAX as u128),
        (u64::MAX as i128, 1 << 64),
    ];
    /// WMC literal weights: zero, negative, above one, and denominators
    /// whose lcm differs from either one; then the limb boundaries (near
    /// `2^32`, `2^63`, `2^64`) and weights above `2^64` (multi-limb
    /// literals), of both signs.
    const WEIGHTS: [(i128, u128); ALL] = [
        (0, 1),
        (-3, 7),
        (5, 2),
        (1, 1),
        (2, 9),
        (-1, 4),
        (5, 6),
        (-7, 1),
        ((1 << 32) + 1, (1 << 32) - 1),
        (-((1 << 32) - 1), 1 << 32),
        (i64::MAX as i128, u64::MAX as u128),
        (-(1 << 63), 3),
        (-(u64::MAX as i128), (1 << 63) + 1),
        ((1 << 70) + 3, 5),
        (-((1 << 65) + 1), 3),
        (-1, 1 << 64),
    ];
    /// The rows of [`PROBABILITIES`] and [`WEIGHTS`] before the limb
    /// boundaries, and all of them.
    const MIXED: usize = 8;
    const ALL: usize = 16;

    /// A seeded pick from `table` for event `e` (SplitMix64 finalizer).
    fn pick(table: &[(i128, u128)], seed: u64, e: usize) -> Rational {
        let mut z = seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let (n, d) = table[(z ^ (z >> 31)) as usize % table.len()];
        let sign = if n < 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let n = BigInt::from_sign_magnitude(sign, BigUint::from_u128(n.unsigned_abs()));
        Rational::new(n, BigUint::from_u128(d))
    }

    /// The fraction-free `ParallelDnnf::{probability, wmc, model_count}`
    /// against the `Rational` `Probability` / `Wmc` instances and the
    /// `Count` pass of the sequential runner, with exact equality, and
    /// `ParallelDnnf::{probability_interval, wmc_interval}` against the
    /// sequential interval passes, bit for bit and containing the exact
    /// answers, at threads {1, 2, 8}. WMC runs twice: over the weight rows,
    /// and over their negative ones only. `rows` is how many rows of the
    /// tables to draw from (the `Rational` reference passes get slow on
    /// hundreds of events with 64-bit denominators).
    fn assert_fraction_free_exact(parallel: &ParallelDnnf, seed: u64, rows: usize) {
        let dnnf = parallel.structured().dnnf();
        // The precondition of the single final division by the universe's
        // scales: the output mentions every universe event, or is false.
        let circuit = dnnf.circuit();
        let read: Vec<usize> = dnnf.variables().into_iter().collect();
        assert!(
            read == parallel.structured().universe()
                || circuit.gate(circuit.output()) == Gate::Const(false)
        );
        let weights = &WEIGHTS[..rows];
        let negative: Vec<(i128, u128)> = weights.iter().copied().filter(|w| w.0 < 0).collect();
        let prob = |e: usize| pick(&PROBABILITIES[..rows], seed, e);
        let pos = |e: usize| pick(weights, seed, e);
        // `neg` skips the table's zero, so no event's two weights sum to
        // zero (which would zero every count and hide a wrong scale).
        let neg = |e: usize| pick(&weights[1..], !seed, e);
        let pos_negative = |e: usize| pick(&negative, seed, e);
        let neg_negative = |e: usize| pick(&negative, !seed, e);
        let want_p = dnnf.evaluate(&Probability(&prob));
        let want_w = dnnf.evaluate(&Wmc {
            pos: &pos,
            neg: &neg,
        });
        let want_negative = dnnf.evaluate(&Wmc {
            pos: &pos_negative,
            neg: &neg_negative,
        });
        let want_count = dnnf.evaluate(&Count);
        // The interval passes over the same weights, against the
        // sequential runner's endpoints (through `evaluate`, which skips
        // `Dnnf::wmc_interval`'s smoothness assert, as above).
        let iv = |f: &dyn Fn(usize) -> Rational, e: usize| ErrorInterval::from_rational(&f(e));
        let bits = |i: ErrorInterval| (i.lo().to_bits(), i.hi().to_bits());
        let seq_p = dnnf.probability_interval(&|e| iv(&prob, e));
        let seq_w = dnnf.evaluate(&Wmc {
            pos: &|e| iv(&pos, e),
            neg: &|e| iv(&neg, e),
        });
        let seq_negative = dnnf.evaluate(&Wmc {
            pos: &|e| iv(&pos_negative, e),
            neg: &|e| iv(&neg_negative, e),
        });
        for threads in [1usize, 2, 8] {
            let p = parallel.probability_interval(&|e| iv(&prob, e), threads);
            let w = parallel.wmc_interval(&|e| iv(&pos, e), &|e| iv(&neg, e), threads);
            let negative = parallel.wmc_interval(
                &|e| iv(&pos_negative, e),
                &|e| iv(&neg_negative, e),
                threads,
            );
            assert_eq!(bits(p), bits(seq_p), "threads={threads}");
            assert_eq!(bits(w), bits(seq_w), "threads={threads}");
            assert_eq!(bits(negative), bits(seq_negative), "threads={threads}");
            assert!(p.contains(&want_p), "threads={threads}");
            assert!(w.contains(&want_w), "threads={threads}");
            assert!(negative.contains(&want_negative), "threads={threads}");
            assert_eq!(
                parallel.probability(&prob, threads),
                want_p,
                "threads={threads}"
            );
            assert_eq!(
                parallel.wmc(&pos, &neg, threads),
                want_w,
                "threads={threads}"
            );
            assert_eq!(
                parallel.wmc(&pos_negative, &neg_negative, threads),
                want_negative,
                "threads={threads}"
            );
            assert_eq!(
                parallel.model_count(threads),
                want_count,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fraction_free_passes_equal_rational_instances_on_edge_cases() {
        let config = EngineConfig::with_threads(4);
        // Every other leaf event picks label 0 either way: events in the
        // universe that the query never reads.
        let mut u = big_comb(300);
        let leaves: Vec<NodeId> = (0..u.tree().node_count())
            .map(NodeId)
            .filter(|&n| u.tree().is_leaf(n))
            .collect();
        for (e, &leaf) in leaves.iter().enumerate().step_by(2) {
            u.set_event(leaf, e, 0, 0);
        }
        for automaton in [
            treelineage_automata::parity_automaton(2),
            treelineage_automata::exists_one_automaton(2)
                .determinize()
                .0,
        ] {
            let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
            assert!(!parallel.partition().is_empty());
            for seed in 0..8 {
                assert_fraction_free_exact(&parallel, seed, MIXED);
            }
        }

        // An automaton that accepts nothing: the output is `Const(false)`.
        let mut nothing = TreeAutomaton::new(1, 3);
        for label in 0..3 {
            nothing.add_leaf_transition(label, 0);
            nothing.add_internal_transition(label, 0, 0, 0);
        }
        let parallel = compile_structured_dnnf_parallel(&nothing, &u, &config).unwrap();
        let circuit = parallel.structured().dnnf().circuit();
        assert_eq!(circuit.gate(circuit.output()), Gate::Const(false));
        assert!(parallel
            .probability(&|e| pick(&PROBABILITIES, 1, e), 2)
            .is_zero());
        assert_fraction_free_exact(&parallel, 1, MIXED);

        // `Not(Const)` gates, under probabilities 0 and 1 and zero /
        // negative weights, also inside fragments; an OR whose inputs'
        // bounds differ.
        for seed in 0..16 {
            assert_fraction_free_exact(&not_const_lineage(), seed, ALL);
            assert_fraction_free_exact(&false_input_lineage(), seed, ALL);
            assert_fraction_free_exact(&partitioned_const_lineage(), seed, ALL);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn random_trees_compile_byte_identically(
            u in strategies::uncertain_tree(64, 3),
            automaton in strategies::deterministic_automaton(3, 4),
        ) {
            // Random trees are small, so pin a tiny fragment grain to force
            // the cut/merge path that a production-size tree would take.
            let sequential = match compile_structured_dnnf(&automaton, &u) {
                Ok(s) => s,
                Err(_) => return, // shared events: both paths reject (covered above)
            };
            for threads in [2usize, 4] {
                let mut config = EngineConfig::with_threads(threads);
                config.fragment_grain = 8;
                let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
                assert_identical(&parallel, &sequential);
                let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 3 + 2);
                assert_eq!(
                    parallel.probability(&prob, threads),
                    sequential.probability(&prob)
                );
                assert_eq!(parallel.model_count(threads), sequential.model_count());
            }
        }
    }

    /// SplitMix64 step.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Cut sets [`SubtreePlan::cut`]'s balanced grain never produces: a
    /// random antichain (walking down from the root, each node is cut,
    /// descended into, or — a leaf — left on the spine), every leaf, one
    /// child of the root, and every maximal event-free subtree.
    fn unbalanced_cut_sets(u: &UncertainTree, seed: u64) -> Vec<Vec<NodeId>> {
        let tree = u.tree();
        let mut rng = seed;
        let mut random = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            match (next(&mut rng) % 3, tree.children(node)) {
                (0, _) => random.push(node),
                (_, Some((l, r))) => stack.extend([r, l]),
                (_, None) => {}
            }
        }
        let leaves = tree
            .post_order()
            .into_iter()
            .filter(|&n| tree.is_leaf(n))
            .collect();
        let root_child = tree
            .children(tree.root())
            .map(|(l, _)| l)
            .into_iter()
            .collect();
        let mut has_event = vec![false; tree.node_count()];
        for node in tree.post_order() {
            has_event[node.0] = !matches!(u.annotation(node), NodeAnnotation::Fixed)
                || tree
                    .children(node)
                    .is_some_and(|(l, r)| has_event[l.0] || has_event[r.0]);
        }
        let mut event_free = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            if !has_event[node.0] {
                event_free.push(node);
            } else if let Some((l, r)) = tree.children(node) {
                stack.extend([r, l]);
            }
        }
        vec![random, leaves, root_child, event_free]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The splice seam at arbitrary cut points: compiling each cut on
        /// its own (fresh, and again from the fragment library) and
        /// splicing it into the whole-tree build equals the unspliced
        /// build byte for byte; invalid inputs fail with the sequential
        /// compiler's typed error.
        #[test]
        fn arbitrary_cuts_splice_byte_identically(
            u in strategies::uncertain_tree(48, 3),
            automaton in strategies::deterministic_automaton(3, 3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let sequential = compile_structured_dnnf(&automaton, &u).unwrap();
            let run = Run::from_automaton(&automaton, &u).unwrap();
            let builder = StructuredBuilder::new(&run, &u).unwrap();
            let telemetry = Telemetry::disabled();
            for cuts in unbalanced_cut_sets(&u, seed) {
                let plan = SubtreePlan::new(u.tree(), cuts);
                let cold = compile_planned(&builder, &plan, &telemetry, 2, None).unwrap();
                assert_identical(&cold.artifact, &sequential);
                let warm =
                    compile_planned(&builder, &plan, &telemetry, 2, Some(&cold.library)).unwrap();
                assert_eq!(warm.stats.recompiled, 0);
                assert_identical(&warm.artifact, &sequential);
            }

            let mut config = EngineConfig::with_threads(2);
            config.fragment_grain = 2;
            let mut nondeterministic = automaton.clone();
            nondeterministic.add_leaf_transition(0, 0);
            nondeterministic.add_leaf_transition(0, 1);
            assert_eq!(
                compile_structured_dnnf_parallel(&nondeterministic, &u, &config).unwrap_err(),
                StructuredDnnfError::NondeterministicAutomaton
            );
            let n = u.tree().node_count();
            let evented = (0..n).find(|&i| {
                !matches!(u.annotation(NodeId(i)), NodeAnnotation::Fixed)
            });
            if let (Some(holder), true) = (evented, n > 1) {
                let NodeAnnotation::Event { event, .. } = u.annotation(NodeId(holder)) else {
                    unreachable!()
                };
                let other = (holder + 1 + next(&mut seed.clone()) as usize % (n - 1)) % n;
                let mut shared = u.clone();
                shared.set_event(NodeId(other), event, 0, 0);
                let want = compile_structured_dnnf(&automaton, &shared).unwrap_err();
                assert!(matches!(want, StructuredDnnfError::SharedEvent { .. }));
                assert_eq!(
                    compile_structured_dnnf_parallel(&automaton, &shared, &config).unwrap_err(),
                    want
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn fraction_free_passes_equal_rational_instances(
            u in strategies::uncertain_tree(48, 3),
            automaton in strategies::deterministic_automaton(3, 3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut config = EngineConfig::with_threads(4);
            config.fragment_grain = 8;
            if let Ok(parallel) = compile_structured_dnnf_parallel(&automaton, &u, &config) {
                assert_fraction_free_exact(&parallel, seed, ALL);
            }
        }
    }

    /// `(hull layout, oracle)` arena sizes of `circuit` under the seeded
    /// WMC weights of [`assert_fraction_free_exact`]: the limbs
    /// [`LimbArena::exact`] lays out from the circuit's [`ScopeHull`], and
    /// the test oracle `Σ_g width(Σ_{v ∈ scope(g)} e_v)` over the scopes of
    /// `Circuit::gate_dependencies`, with each event's bit bound `e_v`
    /// read from a one-event weight table.
    fn hull_and_scope_sum_limbs(circuit: &Circuit, seed: u64) -> (usize, usize) {
        let weights_of = |v| (pick(&WEIGHTS, seed, v), pick(&WEIGHTS[1..], !seed, v));
        let hull = ScopeHull::new(circuit);
        let mut weights = IntWeights::with_capacity(hull.vars().len());
        for &v in hull.vars() {
            let (pos, neg) = weights_of(v);
            weights.push_weights(&pos, &neg);
        }
        let layout = LimbArena::exact(&hull, &weights).limb_count();
        let bits = |v| {
            let (pos, neg) = weights_of(v);
            let mut one = IntWeights::with_capacity(1);
            one.push_weights(&pos, &neg);
            one.prefix_bits(1)
        };
        let oracle = circuit
            .gate_dependencies()
            .iter()
            .map(|scope| limbs::width(scope.iter().map(|&v| bits(v)).sum()))
            .sum();
        (layout, oracle)
    }

    /// Circuits of up to 24 gates over up to 6 events, in any gate order:
    /// `Var` gates (new or shared) interleave with constants, negations
    /// and ANDs / ORs of any earlier gates, so scopes need not be
    /// intervals, nor ANDs decomposable, nor ORs smooth.
    fn arbitrary_circuit() -> impl proptest::strategy::Strategy<Value = Circuit> {
        use proptest::prelude::*;
        let op = (0u8..6, any::<u64>(), any::<u64>(), any::<u64>());
        proptest::collection::vec(op, 1..24).prop_map(|ops| {
            let mut c = Circuit::new();
            let mut ids = Vec::new();
            for (op, a, b, d) in ops {
                let earlier = |x: u64| ids[x as usize % ids.len()];
                let g = match op {
                    0 | 1 => c.var(a as usize % 6),
                    2 => c.constant(a % 2 == 0),
                    _ if ids.is_empty() => c.var(a as usize % 6),
                    3 => c.not(earlier(a)),
                    4 => c.and(vec![earlier(a), earlier(b), earlier(d)]),
                    _ => c.or(vec![earlier(a), earlier(b)]),
                };
                ids.push(g);
            }
            c.set_output(*ids.last().unwrap());
            c
        })
    }

    #[test]
    fn hull_layout_bounds_fixtures_and_equals_the_golden_artifact() {
        for seed in 0..16 {
            for lineage in [
                not_const_lineage(),
                false_input_lineage(),
                partitioned_const_lineage(),
            ] {
                let (layout, oracle) =
                    hull_and_scope_sum_limbs(lineage.structured().dnnf().circuit(), seed);
                assert!(layout >= oracle, "{layout} < {oracle}");
            }
        }
        // `tests/dsdnnf_golden.rs`'s seeded random tree and automaton.
        let mut rng = proptest::strategy::TestRng::new(36);
        let tree =
            proptest::strategy::Strategy::generate(&strategies::uncertain_tree(64, 3), &mut rng);
        let automaton = proptest::strategy::Strategy::generate(
            &strategies::deterministic_automaton(4, 3),
            &mut rng,
        );
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        assert_eq!(s.size(), 309, "the golden artifact");
        for seed in 0..16 {
            let (layout, oracle) = hull_and_scope_sum_limbs(s.dnnf().circuit(), seed);
            assert_eq!(layout, oracle);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The hull layout never undercuts the scope-sum bound, on any
        /// circuit, and equals it on the construction's circuits, whose
        /// gate scopes are runs of consecutive ranks.
        #[test]
        fn hull_layout_bounds_the_scope_sum(
            c in arbitrary_circuit(),
            u in strategies::uncertain_tree(48, 3),
            automaton in strategies::deterministic_automaton(3, 3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (layout, oracle) = hull_and_scope_sum_limbs(&c, seed);
            assert!(layout >= oracle, "{layout} < {oracle}");
            if let Ok(s) = compile_structured_dnnf(&automaton, &u) {
                let (layout, oracle) = hull_and_scope_sum_limbs(s.dnnf().circuit(), seed);
                assert_eq!(layout, oracle);
            }
        }
    }
}
