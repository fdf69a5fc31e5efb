//! Parallel bottom-up subtree compilation with a **bit-identical** output
//! contract.
//!
//! Every bottom-up pass of the lineage pipeline — the automaton run, the
//! Theorem 6.11 d-SDNNF gate construction, and the evaluation passes over
//! the resulting circuit — has the same shape: disjoint subtrees are
//! independent, and only the "spine" of nodes above the chosen cut points
//! sequentializes. This module exploits that:
//!
//! 1. [`SubtreePlan`] cuts the tree into fragments of comparable size (one
//!    contiguous post-order segment each) plus the spine above them;
//! 2. worker threads compile fragments independently (scheduled by the
//!    work-stealing pool in `pool`);
//! 3. a deterministic merge replays each fragment into the global arenas
//!    **in global post-order**, then runs the spine sequentially.
//!
//! The determinism contract: because `Circuit` and `Vtree` are append-only
//! arenas and a subtree's nodes occupy a contiguous post-order segment, the
//! sequential construction allocates a fragment's gates as one contiguous id
//! block that references only the block itself plus the two constant gates.
//! Replaying fragments in post-order therefore reproduces the sequential
//! gate stream *byte for byte* — same gates, same ids, same operand order,
//! same output — at every thread count, with no iteration-order leakage
//! (worker completion order never influences ids; only the tree shape
//! does). `tests` and the umbrella `tests/parallel_differential.rs` pin
//! this gate-by-gate against [`treelineage_automata::compile_structured_dnnf`].
//!
//! Evaluation reuses the same partition: each fragment's gate range is
//! self-contained, so [`ParallelDnnf::evaluate`] runs the circuit crate's
//! one gate step ([`eval_gate`]) over any [`Semiring`] on the ranges
//! concurrently and finishes the spine on the caller's thread. Every pass —
//! probability, WMC and model counting, exact or in certified intervals —
//! is an instance of that runner ([`Probability`], [`Wmc`], [`Count`]); the
//! exact probability and WMC passes run [`Wmc`] over [`BigInt`] weights and
//! reduce once per answer (fraction-free, see [`ParallelDnnf::wmc`]). A
//! gate's value depends only on its inputs' values and the fixed operand
//! order, so the result equals the sequential [`Dnnf::evaluate`] bit for
//! bit at every thread count, floating-point intervals included.

use crate::pool::run_tasks;
use crate::EngineConfig;
use std::collections::BTreeMap;
use std::collections::HashMap;
use treelineage_automata::{
    compile_structured_dnnf_traced, BinaryTree, NodeAnnotation, NodeId, State, StructuredDnnf,
    StructuredDnnfError, TreeAutomaton, UncertainTree,
};
use treelineage_circuit::{
    eval_gate, Circuit, Count, Dnnf, Gate, GateId, Probability, Semiring, Vtree, VtreeId,
    VtreeNode, Wmc,
};
use treelineage_num::{BigInt, BigUint, ErrorInterval, Rational};
use treelineage_telemetry::Telemetry;

/// Fragments below this size are not worth a task of their own: the replay
/// and scheduling overhead would exceed the construction work.
const MIN_FRAGMENT_NODES: usize = 64;

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
            // 4 fragments per worker gives the work-stealing pool enough
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
        let mut owner: Vec<Option<u32>> = vec![None; n];
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            if sizes[node.0] <= grain {
                let index = cuts.len() as u32;
                cuts.push(node);
                for member in tree.post_order_from(node) {
                    owner[member.0] = Some(index);
                }
            } else {
                // A node larger than the grain has children (leaves have
                // size 1 ≤ grain); it stays on the spine.
                let (l, r) = tree.children(node).expect("grain ≥ 1 keeps leaves cut");
                stack.push(r);
                stack.push(l);
            }
        }
        if cuts.len() < 2 {
            return None;
        }
        Some(SubtreePlan { cuts, owner })
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
    /// Observes the evaluation passes (pool task/steal counters); carried
    /// from the compiling config so cached artifacts keep reporting into
    /// the session's registry. Never influences any computed value.
    telemetry: Telemetry,
}

impl ParallelDnnf {
    /// Wraps a sequentially compiled artifact (empty partition: every
    /// evaluation runs sequentially; no telemetry sink).
    pub fn sequential(structured: StructuredDnnf) -> Self {
        ParallelDnnf {
            structured,
            partition: CircuitPartition::default(),
            telemetry: Telemetry::disabled(),
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

    /// Evaluates the circuit bottom-up over `semiring`, running the shared
    /// [`eval_gate`] step: self-contained fragment ranges on up to
    /// `threads` pool workers first, then one sweep on the caller's thread
    /// over the spine gates outside every fragment. With one thread or no
    /// partition this is [`Dnnf::evaluate`]. Each gate's value depends only
    /// on its inputs' values and the fixed operand order, so the result is
    /// the same bit for bit at every thread count.
    pub(crate) fn evaluate<S>(&self, semiring: &S, threads: usize) -> S::Value
    where
        S: Semiring + Sync,
        S::Value: Send,
    {
        let dnnf = self.structured.dnnf();
        let fragments = &self.partition.fragments;
        if threads <= 1 || fragments.len() <= 1 {
            return dnnf.evaluate(semiring);
        }
        let circuit = dnnf.circuit();
        let telemetry = &self.telemetry;
        let chunks = run_tasks(threads, fragments.len(), telemetry, |fi| {
            let mut chunk_span = telemetry.span("eval_fragment");
            chunk_span.label("fragment", fi);
            let (start, end) = fragments[fi];
            // A fragment references only its own range plus the two global
            // constant gates.
            let constants = [semiring.zero(), semiring.one()];
            let mut buf: Vec<S::Value> = Vec::with_capacity(end - start);
            for id in start..end {
                let value = eval_gate(semiring, circuit, GateId(id), |i| {
                    if i.0 >= start {
                        &buf[i.0 - start]
                    } else if let Gate::Const(b) = circuit.gate(i) {
                        &constants[usize::from(*b)]
                    } else {
                        unreachable!("fragment ranges are self-contained")
                    }
                });
                buf.push(value);
            }
            buf
        });
        let mut values: Vec<Option<S::Value>> = vec![None; circuit.size()];
        for (&(start, _), chunk) in fragments.iter().zip(chunks) {
            for (offset, value) in chunk.into_iter().enumerate() {
                values[start + offset] = Some(value);
            }
        }
        for id in circuit.gate_ids() {
            if values[id.0].is_none() {
                let value = eval_gate(semiring, circuit, id, |i| {
                    values[i.0].as_ref().expect("ids are topological")
                });
                values[id.0] = Some(value);
            }
        }
        values[circuit.output().0]
            .take()
            .expect("output gate was evaluated")
    }

    /// Acceptance probability under independent event probabilities,
    /// fraction-free: event `v` with `P(v) = a/b` weighs `a` as a positive
    /// literal and `b - a` as a negative one, and one [`Wmc`] pass over
    /// [`BigInt`] divided by `∏ b` gives the answer (see
    /// [`ParallelDnnf::wmc`]). Equal to the `Rational` [`Dnnf::probability`].
    pub fn probability(
        &self,
        prob: &(dyn Fn(usize) -> Rational + Sync),
        threads: usize,
    ) -> Rational {
        self.fraction_free(threads, |v| {
            let p = prob(v);
            let b = BigInt::from_biguint(p.denominator().clone());
            (
                p.numerator().clone(),
                &b - p.numerator(),
                p.denominator().clone(),
            )
        })
    }

    /// Weighted model count with general per-literal weights, fraction-free:
    /// event `v`'s weights are scaled by `c = lcm(den pos(v), den neg(v))`
    /// into integers, one [`Wmc`] pass over [`BigInt`] runs on the
    /// fragment-parallel kernel runner, and the integer result divided by
    /// `∏ c` over the universe is the answer — the only gcd of the call.
    /// Sound because the circuit is smooth and its output mentions every
    /// universe event (or is `Const(false)`), which the [`StructuredDnnf`]
    /// invariant guarantees. Equal to the `Rational` [`Dnnf::wmc`].
    pub fn wmc(
        &self,
        pos: &(dyn Fn(usize) -> Rational + Sync),
        neg: &(dyn Fn(usize) -> Rational + Sync),
        threads: usize,
    ) -> Rational {
        self.fraction_free(threads, |v| {
            let (pos, neg) = (pos(v), neg(v));
            let (dp, dn) = (pos.denominator(), neg.denominator());
            let scale = &dp.div_rem(&dp.gcd(dn)).0 * dn;
            let scaled = |w: &Rational| {
                w.numerator() * &BigInt::from_biguint(scale.div_rem(w.denominator()).0)
            };
            (scaled(&pos), scaled(&neg), scale)
        })
    }

    /// The integer pass behind [`ParallelDnnf::probability`] and
    /// [`ParallelDnnf::wmc`]: `weights(v)` gives event `v`'s integer
    /// `(pos, neg)` literal weights and their scale, read once per universe
    /// event; the answer is `Wmc_ℤ / ∏ scale`.
    fn fraction_free(
        &self,
        threads: usize,
        weights: impl Fn(usize) -> (BigInt, BigInt, BigUint),
    ) -> Rational {
        let universe = self.structured.universe();
        let mut denominator = BigUint::one();
        let (pos, neg): (Vec<BigInt>, Vec<BigInt>) = universe
            .iter()
            .map(|&v| {
                let (pos, neg, scale) = weights(v);
                denominator *= &scale;
                (pos, neg)
            })
            .unzip();
        let index = |v: usize| {
            universe
                .binary_search(&v)
                .expect("circuit events lie in the universe")
        };
        let numerator = self.evaluate(
            &Wmc {
                pos: |v| pos[index(v)].clone(),
                neg: |v| neg[index(v)].clone(),
            },
            threads,
        );
        Rational::new(numerator, denominator)
    }

    /// Number of accepting event valuations (one integer pass thanks to
    /// smoothness-by-construction): the [`Count`] instance of the
    /// fragment-parallel kernel runner.
    pub fn model_count(&self, threads: usize) -> BigUint {
        self.evaluate(&Count, threads)
    }

    /// The float fast-path of [`ParallelDnnf::probability`]: the same pass
    /// over certified [`ErrorInterval`]s, guaranteed to contain the exact
    /// rational answer and identical at every thread count.
    pub fn probability_interval(
        &self,
        prob: &(dyn Fn(usize) -> ErrorInterval + Sync),
        threads: usize,
    ) -> ErrorInterval {
        self.evaluate(&Probability(prob), threads)
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
        self.evaluate(&Wmc { pos, neg }, threads)
    }
}

/// A compiled fragment: the gates and vtree nodes the sequential
/// construction would allocate for this subtree, with local ids (constants
/// at 0/1, everything else offset by 2 at replay time).
struct Fragment {
    circuit: Circuit,
    vtree: Vtree,
    /// Per automaton state, the (local) gate of the fragment root.
    root_gates: Vec<GateId>,
    /// The (local) vtree node covering the fragment root's events, if any.
    root_vnode: Option<VtreeId>,
}

/// The full post-order content of a fragment subtree — `(label, is-leaf,
/// event annotation)` per node. Two subtrees with equal keys have equal
/// shape, labels and events, so [`compile_fragment`] produces byte-identical
/// output for them (its gate stream is a pure function of this content and
/// the automaton's memoized transitions). Keys are compared in full — no
/// hash shortcut decides reuse.
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
/// and skip [`compile_fragment`] entirely; only dirty fragments recompile,
/// and the deterministic merge replays as usual. Validity is the caller's
/// contract: a library may only be replayed against the *same* compiled
/// query machine that produced it (state numbering is machine-history
/// dependent), with an automaton whose state count has only grown — the
/// session layer guards both.
#[derive(Clone, Default)]
pub(crate) struct FragmentLibrary {
    fragments: HashMap<FragmentKey, std::sync::Arc<Fragment>>,
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
    compile_with_pool(automaton, tree, config, config.threads)
}

/// [`compile_structured_dnnf_parallel`] with the fragment *plan*
/// (`config.threads`) decoupled from the worker pool actually used
/// (`pool_threads`). The session layer compiles with `pool_threads = 1`
/// when a batch already saturates the pool with one task per (query,
/// instance) pair — the cached artifact still carries the partition its
/// session-level thread count plans for, so later lone-request batches get
/// fragment-parallel evaluation. The output is identical either way: the
/// plan, not the pool, determines every id.
pub(crate) fn compile_with_pool(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
    pool_threads: usize,
) -> Result<ParallelDnnf, StructuredDnnfError> {
    compile_with_pool_cached(automaton, tree, config, pool_threads, None).map(|c| c.artifact)
}

/// [`compile_with_pool`] with fragment reuse: fragments of `previous` whose
/// subtree content is unchanged are replayed instead of recompiled, and the
/// output is **byte-identical** to a compile without the library (same
/// gates, ids, operand order, vtree) — reuse changes which thread produces
/// a block of gates, never the gates. Preconditions on `previous` (enforced
/// by the session layer): it was produced by this function against the same
/// compiled query machine, whose state count can only have grown since.
pub(crate) fn compile_with_pool_cached(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
    pool_threads: usize,
    previous: Option<&FragmentLibrary>,
) -> Result<CachedCompile, StructuredDnnfError> {
    let telemetry = &config.telemetry;
    let plan = match SubtreePlan::cut(tree.tree(), config.threads, config.fragment_grain) {
        Some(plan) => plan,
        None => {
            return compile_structured_dnnf_traced(automaton, tree, telemetry).map(|s| {
                CachedCompile {
                    artifact: ParallelDnnf::sequential(s).with_telemetry(telemetry.clone()),
                    library: FragmentLibrary::default(),
                    stats: RecompileStats::default(),
                }
            })
        }
    };
    // Same validation, in the same order, as the sequential compiler: the
    // parallel path must fail on exactly the inputs (and with exactly the
    // errors) the sequential path fails on.
    if !automaton.is_deterministic() {
        return Err(StructuredDnnfError::NondeterministicAutomaton);
    }
    let mut seen_events: BTreeMap<usize, usize> = BTreeMap::new();
    for node in 0..tree.tree().node_count() {
        if let NodeAnnotation::Event { event, .. } = tree.annotation(NodeId(node)) {
            *seen_events.entry(event).or_insert(0) += 1;
        }
    }
    if let Some((&event, _)) = seen_events.iter().find(|(_, &count)| count > 1) {
        return Err(StructuredDnnfError::SharedEvent { event });
    }

    let states = automaton.state_count();

    // Phase 1: fragments, in parallel — but first settle, per cut, whether
    // the library already holds this subtree's compile. The key is the full
    // post-order content, so a hit is exactly "this subtree is untouched".
    let keys: Vec<FragmentKey> = plan
        .cuts
        .iter()
        .map(|&cut| fragment_key(tree, cut))
        .collect();
    let cached: Vec<Option<std::sync::Arc<Fragment>>> = keys
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
    let compiled: Vec<Fragment> = {
        let mut span = telemetry.span("dsdnnf_fragments");
        span.label("fragments", plan.cuts.len());
        span.label("reused", stats.reused);
        run_tasks(pool_threads, dirty.len(), telemetry, |j| {
            // On a pool worker this parents to the `dsdnnf_fragments` span
            // through the context captured at spawn time; inline it nests
            // via the caller's span stack. Either way: one connected trace.
            let mut fragment_span = telemetry.span("dsdnnf_fragment");
            fragment_span.label("fragment", dirty[j]);
            compile_fragment(automaton, tree, plan.cuts[dirty[j]], states)
        })
    };
    let mut compiled = compiled.into_iter();
    let fragments: Vec<std::sync::Arc<Fragment>> = cached
        .into_iter()
        .map(|slot| match slot {
            Some(fragment) => fragment,
            None => std::sync::Arc::new(compiled.next().expect("one compile per dirty cut")),
        })
        .collect();
    let library = FragmentLibrary {
        fragments: keys.into_iter().zip(fragments.iter().cloned()).collect(),
    };

    // Phase 2: deterministic merge — walk the global post-order, replay
    // each fragment at its root's position, run spine nodes inline.
    let _merge_span = telemetry.span("dsdnnf_merge");
    let mut circuit = Circuit::new();
    let false_gate = circuit.constant(false);
    // The true constant must exist at id 1 (the helper and the fragment
    // replay both rely on the 0/1 constant convention).
    let _true_gate = circuit.constant(true);
    let mut vtree = Vtree::new();
    let mut partition = CircuitPartition::default();
    // Gate vector / vtree node per *pending* node (fragment roots and spine
    // nodes whose parent has not been processed yet).
    let mut gates: HashMap<usize, Vec<GateId>> = HashMap::new();
    let mut vnodes: HashMap<usize, Option<VtreeId>> = HashMap::new();

    for node in tree.tree().post_order() {
        match plan.owner[node.0] {
            Some(fragment_index) => {
                if plan.cuts[fragment_index as usize] != node {
                    continue; // interior fragment node: already compiled by its worker
                }
                let fragment = &fragments[fragment_index as usize];
                let gate_offset = circuit.size();
                replay_circuit(&mut circuit, &fragment.circuit);
                partition.fragments.push((gate_offset, circuit.size()));
                let vtree_offset = vtree.node_count();
                replay_vtree(&mut vtree, &fragment.vtree);
                let map = |g: GateId| {
                    if g.0 < 2 {
                        GateId(g.0) // the two constants are global
                    } else {
                        GateId(gate_offset + g.0 - 2)
                    }
                };
                // A library fragment may predate states the automaton has
                // interned since; those are unreachable in its (unchanged)
                // subtree, so pad its root gates with `false`.
                debug_assert!(fragment.root_gates.len() <= states);
                let mut root_gates: Vec<GateId> =
                    fragment.root_gates.iter().map(|&g| map(g)).collect();
                root_gates.resize(states, false_gate);
                gates.insert(node.0, root_gates);
                vnodes.insert(
                    node.0,
                    fragment.root_vnode.map(|v| VtreeId(vtree_offset + v.0)),
                );
            }
            None => {
                // Spine node: both children are pending (fragment roots or
                // spine nodes), so take their entries and run the
                // sequential per-node construction.
                let (left, right) = tree
                    .tree()
                    .children(node)
                    .expect("spine nodes are larger than any fragment, hence internal");
                let left_gates = gates.remove(&left.0).expect("post-order: child first");
                let right_gates = gates.remove(&right.0).expect("post-order: child first");
                let left_v = vnodes.remove(&left.0).expect("post-order: child first");
                let right_v = vnodes.remove(&right.0).expect("post-order: child first");
                let (node_gates, own_v) = internal_node_step(
                    automaton,
                    tree,
                    node,
                    states,
                    &left_gates,
                    &right_gates,
                    left_v,
                    right_v,
                    &mut circuit,
                    &mut vtree,
                );
                gates.insert(node.0, node_gates);
                vnodes.insert(node.0, own_v);
            }
        }
    }

    let root = tree.tree().root();
    let root_gates = &gates[&root.0];
    let accepting: Vec<GateId> = automaton
        .accepting_states()
        .iter()
        .map(|&q| root_gates[q])
        .filter(|&g| g != false_gate)
        .collect();
    let output = match accepting.len() {
        0 => false_gate,
        1 => accepting[0],
        _ => circuit.or(accepting),
    };
    circuit.set_output(output);
    if let Some(v) = vnodes[&root.0] {
        vtree.set_root(v);
    }
    let dnnf = Dnnf::from_trusted_circuit(circuit)
        .expect("the structured construction is decomposable by construction");
    Ok(CachedCompile {
        artifact: ParallelDnnf {
            structured: StructuredDnnf::from_trusted_parts(dnnf, vtree, tree.events()),
            partition,
            telemetry: telemetry.clone(),
        },
        library,
        stats,
    })
}

/// Compiles one subtree exactly as the sequential compiler would: same
/// per-node logic, same allocation order, over the subtree's post-order.
/// Constants occupy local gate ids 0 (false) and 1 (true) and are the only
/// out-of-block references a fragment may make.
fn compile_fragment(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    root: NodeId,
    states: usize,
) -> Fragment {
    let mut circuit = Circuit::new();
    let false_gate = circuit.constant(false);
    let true_gate = circuit.constant(true);
    let mut vtree = Vtree::new();
    let mut gates: HashMap<usize, Vec<GateId>> = HashMap::new();
    let mut vnodes: HashMap<usize, Option<VtreeId>> = HashMap::new();

    for node in tree.tree().post_order_from(root) {
        let own_event = match tree.annotation(node) {
            NodeAnnotation::Fixed => None,
            NodeAnnotation::Event { event, .. } => Some(event),
        };
        match tree.tree().children(node) {
            None => {
                let mut node_gates = vec![false_gate; states];
                for (q, gate) in node_gates.iter_mut().enumerate() {
                    *gate = match tree.annotation(node) {
                        NodeAnnotation::Fixed => {
                            if automaton.leaf_states(tree.tree().label(node)).contains(&q) {
                                true_gate
                            } else {
                                false_gate
                            }
                        }
                        NodeAnnotation::Event {
                            event,
                            if_true,
                            if_false,
                        } => {
                            let in_true = automaton.leaf_states(if_true).contains(&q);
                            let in_false = automaton.leaf_states(if_false).contains(&q);
                            match (in_true, in_false) {
                                (true, true) => {
                                    let v = circuit.var(event);
                                    let nv = circuit.not(v);
                                    circuit.or(vec![v, nv])
                                }
                                (false, false) => false_gate,
                                (true, false) => circuit.var(event),
                                (false, true) => {
                                    let v = circuit.var(event);
                                    circuit.not(v)
                                }
                            }
                        }
                    };
                }
                gates.insert(node.0, node_gates);
                vnodes.insert(node.0, own_event.map(|e| vtree.leaf(e)));
            }
            Some((left, right)) => {
                let left_gates = gates.remove(&left.0).expect("post-order: child first");
                let right_gates = gates.remove(&right.0).expect("post-order: child first");
                let left_v = vnodes.remove(&left.0).expect("post-order: child first");
                let right_v = vnodes.remove(&right.0).expect("post-order: child first");
                let (node_gates, own_v) = internal_node_step(
                    automaton,
                    tree,
                    node,
                    states,
                    &left_gates,
                    &right_gates,
                    left_v,
                    right_v,
                    &mut circuit,
                    &mut vtree,
                );
                gates.insert(node.0, node_gates);
                vnodes.insert(node.0, own_v);
            }
        }
    }
    Fragment {
        root_gates: gates.remove(&root.0).expect("root was processed last"),
        root_vnode: vnodes.remove(&root.0).expect("root was processed last"),
        circuit,
        vtree,
    }
}

/// The sequential compiler's *internal-node* step against the given arenas
/// (which must hold the constants at ids 0 = false and 1 = true, as both
/// the merged circuit and every fragment do): builds the per-state gates
/// of `node` from its children's gate vectors and combines the children's
/// vtree scopes with the node's own event. One definition shared by the
/// fragment workers and the merge spine, so the two can never drift apart
/// — a change here changes both, and the differential suites pin the pair
/// against [`compile_structured_dnnf`] itself.
#[allow(clippy::too_many_arguments)] // mirrors the sequential compiler's full per-node state
fn internal_node_step(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    node: NodeId,
    states: usize,
    left_gates: &[GateId],
    right_gates: &[GateId],
    left_v: Option<VtreeId>,
    right_v: Option<VtreeId>,
    circuit: &mut Circuit,
    vtree: &mut Vtree,
) -> (Vec<GateId>, Option<VtreeId>) {
    let false_gate = GateId(0);
    let true_gate = GateId(1);
    debug_assert_eq!(circuit.gate(false_gate), &Gate::Const(false));
    debug_assert_eq!(circuit.gate(true_gate), &Gate::Const(true));
    let conjoin =
        |parts: Vec<GateId>, circuit: &mut Circuit, true_gate: GateId| -> Option<GateId> {
            let real: Vec<GateId> = parts.into_iter().filter(|&g| g != true_gate).collect();
            match real.len() {
                0 => None,
                1 => Some(real[0]),
                _ => Some(circuit.and(real)),
            }
        };
    let (own_event, alternatives): (Option<usize>, Vec<(usize, Option<GateId>)>) =
        match tree.annotation(node) {
            NodeAnnotation::Fixed => (None, vec![(tree.tree().label(node), None)]),
            NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } => {
                let v = circuit.var(event);
                let not_v = circuit.not(v);
                (
                    Some(event),
                    vec![(if_true, Some(v)), (if_false, Some(not_v))],
                )
            }
        };
    let live_left: Vec<usize> = (0..states)
        .filter(|&q| left_gates[q] != false_gate)
        .collect();
    let live_right: Vec<usize> = (0..states)
        .filter(|&q| right_gates[q] != false_gate)
        .collect();
    let mut disjuncts: Vec<Vec<GateId>> = vec![Vec::new(); states];
    for &(label, guard) in &alternatives {
        for &ql in &live_left {
            for &qr in &live_right {
                for &q in &automaton.internal_states(label, ql, qr) {
                    let gl = left_gates[ql];
                    let gr = right_gates[qr];
                    let inner = conjoin(vec![gl, gr], circuit, true_gate);
                    let conj = match (guard, inner) {
                        (None, None) => true_gate,
                        (None, Some(g)) => g,
                        (Some(gv), None) => gv,
                        (Some(gv), Some(g)) => circuit.and(vec![gv, g]),
                    };
                    disjuncts[q].push(conj);
                }
            }
        }
    }
    let mut node_gates = vec![false_gate; states];
    for (q, disjuncts) in disjuncts.into_iter().enumerate() {
        node_gates[q] = match disjuncts.len() {
            0 => false_gate,
            1 => disjuncts[0],
            _ => circuit.or(disjuncts),
        };
    }
    let children_v = match (left_v, right_v) {
        (None, None) => None,
        (Some(l), None) => Some(l),
        (None, Some(r)) => Some(r),
        (Some(l), Some(r)) => Some(vtree.internal(l, r)),
    };
    let own_v = match (own_event, children_v) {
        (None, v) => v,
        (Some(e), None) => Some(vtree.leaf(e)),
        (Some(e), Some(v)) => {
            let leaf = vtree.leaf(e);
            Some(vtree.internal(leaf, v))
        }
    };
    (node_gates, own_v)
}

/// Replays a fragment's gates (skipping its two local constants) into the
/// global circuit. Allocation order is preserved, so the fragment's gate
/// `i ≥ 2` lands at global id `offset + i - 2` — exactly where the
/// sequential construction would have put it.
fn replay_circuit(global: &mut Circuit, fragment: &Circuit) {
    let offset = global.size();
    let map = |g: GateId| {
        if g.0 < 2 {
            GateId(g.0)
        } else {
            GateId(offset + g.0 - 2)
        }
    };
    for id in 2..fragment.size() {
        let new_id = match fragment.gate(GateId(id)) {
            // Fragment events are globally unique, so `var` always
            // allocates (the memo can never hit across fragments).
            Gate::Var(v) => global.var(*v),
            Gate::Const(_) => unreachable!("fragments hold constants only at ids 0 and 1"),
            Gate::Not(i) => global.not(map(*i)),
            Gate::And(inputs) => {
                let mapped: Vec<GateId> = inputs.iter().map(|&i| map(i)).collect();
                global.and(mapped)
            }
            Gate::Or(inputs) => {
                let mapped: Vec<GateId> = inputs.iter().map(|&i| map(i)).collect();
                global.or(mapped)
            }
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

/// The automaton run itself, fragment-parallel: the states reachable at
/// every node of the tree, equal (as sets) to
/// [`TreeAutomaton::reachable_states`] at every thread count.
pub fn parallel_reachable_states(
    automaton: &TreeAutomaton,
    tree: &BinaryTree,
    threads: usize,
) -> Vec<std::collections::BTreeSet<State>> {
    use std::collections::BTreeSet;
    let plan = match SubtreePlan::cut(tree, threads, 0) {
        Some(plan) => plan,
        None => return automaton.reachable_states(tree),
    };
    let run_subtree = |root: NodeId| -> Vec<(usize, BTreeSet<State>)> {
        let order = tree.post_order_from(root);
        let mut local: HashMap<usize, BTreeSet<State>> = HashMap::with_capacity(order.len());
        for node in order.iter().copied() {
            let label = tree.label(node);
            let states = match tree.children(node) {
                None => automaton.leaf_states(label).clone(),
                Some((l, r)) => {
                    let mut out = BTreeSet::new();
                    for &ls in &local[&l.0] {
                        for &rs in &local[&r.0] {
                            out.extend(automaton.internal_states(label, ls, rs));
                        }
                    }
                    out
                }
            };
            local.insert(node.0, states);
        }
        order
            .into_iter()
            .map(|n| (n.0, local.remove(&n.0).unwrap()))
            .collect()
    };
    let fragments = run_tasks(threads, plan.cuts.len(), &Telemetry::disabled(), |i| {
        run_subtree(plan.cuts[i])
    });
    let mut states: Vec<BTreeSet<State>> = vec![BTreeSet::new(); tree.node_count()];
    for fragment in fragments {
        for (node, set) in fragment {
            states[node] = set;
        }
    }
    for node in tree.post_order() {
        if plan.owner[node.0].is_some() {
            continue;
        }
        let label = tree.label(node);
        let (l, r) = tree
            .children(node)
            .expect("spine nodes are larger than any fragment, hence internal");
        let mut out = BTreeSet::new();
        for &ls in &states[l.0] {
            for &rs in &states[r.0] {
                out.extend(automaton.internal_states(label, ls, rs));
            }
        }
        states[node.0] = out;
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_automata::{compile_structured_dnnf, strategies};

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

    #[test]
    fn parallel_reachable_states_matches_sequential() {
        let automaton = treelineage_automata::exists_one_automaton(2);
        let u = big_comb(400);
        let concrete = u.instantiate(&|e| e % 3 == 0);
        let expected = automaton.reachable_states(&concrete);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                parallel_reachable_states(&automaton, &concrete, threads),
                expected,
                "threads={threads}"
            );
        }
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
        let first = compile_with_pool_cached(&automaton, &u, &config, 4, None).unwrap();
        let total = first.stats.total;
        assert!(total >= 2);
        assert_eq!(first.stats.reused, 0);
        assert_eq!(first.stats.recompiled, total);
        assert_eq!(first.library.len(), total);

        // Replaying the library against the unchanged tree is zero-dirty and
        // still byte-identical.
        let replay =
            compile_with_pool_cached(&automaton, &u, &config, 4, Some(&first.library)).unwrap();
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
        let second =
            compile_with_pool_cached(&automaton, &mutated, &config, 4, Some(&first.library))
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
    /// denominators.
    const PROBABILITIES: [(i64, u64); 8] = [
        (0, 1),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 5),
        (3, 4),
        (7, 12),
        (9, 10),
    ];
    /// WMC literal weights: zero, negative, above one, and denominators
    /// whose lcm differs from either one.
    const WEIGHTS: [(i64, u64); 8] = [
        (0, 1),
        (-3, 7),
        (5, 2),
        (1, 1),
        (2, 9),
        (-1, 4),
        (5, 6),
        (-7, 1),
    ];

    /// A seeded pick from `table` for event `e` (SplitMix64 finalizer).
    fn pick(table: &[(i64, u64)], seed: u64, e: usize) -> Rational {
        let mut z = seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let (n, d) = table[(z ^ (z >> 31)) as usize % table.len()];
        Rational::from_ratio_i64(n, d)
    }

    /// The fraction-free `ParallelDnnf::{probability, wmc}` against the
    /// `Rational` `Probability` / `Wmc` instances of the sequential runner,
    /// with exact equality, at threads {1, 2, 8}.
    fn assert_fraction_free_exact(parallel: &ParallelDnnf, seed: u64) {
        let dnnf = parallel.structured().dnnf();
        // The precondition of the single final division by the universe's
        // scales: the output mentions every universe event, or is false.
        let circuit = dnnf.circuit();
        let read: Vec<usize> = dnnf.variables().into_iter().collect();
        assert!(
            read == parallel.structured().universe()
                || circuit.gate(circuit.output()) == &Gate::Const(false)
        );
        let prob = |e: usize| pick(&PROBABILITIES, seed, e);
        let pos = |e: usize| pick(&WEIGHTS, seed, e);
        // `neg` skips the table's zero, so no event's two weights sum to
        // zero (which would zero every count and hide a wrong scale).
        let neg = |e: usize| pick(&WEIGHTS[1..], !seed, e);
        let want_p = dnnf.evaluate(&Probability(&prob));
        let want_w = dnnf.evaluate(&Wmc {
            pos: &pos,
            neg: &neg,
        });
        for threads in [1usize, 2, 8] {
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
                assert_fraction_free_exact(&parallel, seed);
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
        assert_eq!(circuit.gate(circuit.output()), &Gate::Const(false));
        assert!(parallel
            .probability(&|e| pick(&PROBABILITIES, 1, e), 2)
            .is_zero());
        assert_fraction_free_exact(&parallel, 1);

        // `Not(Const)` gates, under probabilities 0 and 1 and zero /
        // negative weights.
        for seed in 0..16 {
            assert_fraction_free_exact(&not_const_lineage(), seed);
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
                assert_fraction_free_exact(&parallel, seed);
            }
        }
    }
}
