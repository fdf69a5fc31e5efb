//! The slot arena of the served passes: every gate's value lives in a fixed
//! slot of one flat buffer, laid out before evaluation, and the caller's
//! gate step fills the slots in place, over the whole circuit or over
//! disjoint self-contained gate ranges on separate threads
//! ([`LimbArena::split`]). The exact passes run the [`eval_gate`]
//! recurrence over integers in `u64` limb slots sized by a priori bit
//! bounds; the certified interval passes keep one [`ErrorInterval`] slot
//! per gate, filled by [`eval_gate`] itself.
//!
//! **Bound.** On a smooth, deterministic, decomposable circuit with integer
//! literal weights, `|value_g| ≤ ∏_{v ∈ scope(g)} (|pos_v| + |neg_v|)`: the
//! value is a sum over the models of `g`, each a product of one weight per
//! scope variable (decomposability), the models of an OR's inputs are
//! disjoint (determinism) and range over the same scope (smoothness). So
//! with `e_v = ⌈log2(|pos_v| + |neg_v|)⌉`, gate `g` fits
//! [`limbs::width`]`(Σ_{v ∈ scope(g)} e_v)` limbs.
//!
//! **Layout.** The arena does not walk the gates per pass to sum that
//! bound. A [`ScopeHull`], built once per circuit, ranks the events by
//! their `Var` gates in id order and gives every gate the rank interval
//! `[lo_g, hi_g)` spanned by its scope. The weight table lists the events
//! in rank order and keeps the prefix sums `P` of their `e_v`
//! ([`IntWeights::prefix_bits`]), so gate `g` gets
//! `width(P[hi_g] − P[lo_g])` limbs: one flat scan over the hull
//! ([`LimbArena::exact`]). The hull contains the scope and every
//! `e_v ≥ 0`, so this is never below the bound. In the circuits of the
//! Theorem 6.11 construction it is the bound itself: the builder emits the
//! gates of each subtree of the encoding as one post-order block, so every
//! gate's scope is one run of consecutive ranks. Passes whose values have a
//! fixed size take one slot per gate instead ([`LimbArena::per_gate`]).
//!
//! **Exactness.** The limb slots wrap modulo `2^(64·w)`; since the true
//! value of every gate fits its slot, every wrapped sum and truncated
//! product is the exact one, and negative or zero weights need no special
//! case.
//!
//! [`eval_gate`]: crate::eval_gate
//! [`ErrorInterval`]: treelineage_num::ErrorInterval

use crate::circuit::{Circuit, Gate, GateId, VarId};
use std::ops::Range;
use treelineage_num::limbs::{self, IntWeights};

/// The scope hull of every gate of a circuit: the events ranked by the
/// order of their `Var` gates (each event has one, [`Circuit::var`]), and
/// per gate the interval of ranks `[lo, hi)` spanned by its scope (module
/// docs, "Layout"). A literal gate's `lo` is its event's rank.
#[derive(Clone, Debug)]
pub struct ScopeHull {
    /// Per gate, `(lo, hi)`; `(0, 0)` for an empty scope.
    scopes: Vec<(u32, u32)>,
    /// Rank → event.
    vars: Vec<VarId>,
}

impl ScopeHull {
    /// The hull of `circuit`'s gates, in one pass over the gate records: a
    /// `Var` gate opens the next rank, a `Not` copies its input's interval,
    /// and an AND or OR spans its inputs' non-empty intervals.
    pub fn new(circuit: &Circuit) -> Self {
        let mut scopes: Vec<(u32, u32)> = Vec::with_capacity(circuit.size());
        let mut vars = Vec::new();
        for id in circuit.gate_ids() {
            let scope = match circuit.gate(id) {
                Gate::Var(v) => {
                    // Ranks are below the gate count, which a circuit of
                    // fewer than 2^32 gates bounds.
                    let rank = u32::try_from(vars.len()).expect("fewer than 2^32 events");
                    vars.push(v);
                    (rank, rank + 1)
                }
                Gate::Const(_) => (0, 0),
                Gate::Not(i) => scopes[i.0],
                Gate::And(inputs) | Gate::Or(inputs) => inputs
                    .iter()
                    .map(|i| scopes[i.0])
                    .filter(|&(lo, hi)| lo < hi)
                    .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
                    .unwrap_or((0, 0)),
            };
            scopes.push(scope);
        }
        ScopeHull { scopes, vars }
    }

    /// The events in rank order.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The rank interval of gate `g`'s scope (empty for a gate that reads
    /// no event).
    pub fn scope(&self, g: GateId) -> Range<usize> {
        let (lo, hi) = self.scopes[g.0];
        lo as usize..hi as usize
    }
}

/// The value slots of every gate of a circuit, laid out from its scope hull
/// or one per gate (module docs): gate `g` owns elements
/// `slots[g]..slots[g + 1]`, in gate-id order, so a contiguous gate range
/// owns a contiguous slot range.
#[derive(Debug)]
pub struct LimbArena<T> {
    slots: Vec<usize>,
    limbs: Vec<T>,
}

impl LimbArena<u64> {
    /// The layout of the exact passes: gate `g` gets
    /// [`limbs::width`]`(P[hi] − P[lo])` zeroed limbs, where `[lo, hi)` is
    /// its scope hull and `P` the prefix bit sums of `weights`, which list
    /// `hull`'s events in rank order.
    pub fn exact(hull: &ScopeHull, weights: &IntWeights) -> Self {
        let mut slots = Vec::with_capacity(hull.scopes.len() + 1);
        let mut total = 0;
        for &(lo, hi) in &hull.scopes {
            slots.push(total);
            total +=
                limbs::width(weights.prefix_bits(hi as usize) - weights.prefix_bits(lo as usize));
        }
        slots.push(total);
        LimbArena {
            slots,
            limbs: vec![0; total],
        }
    }
}

impl<T: Copy> LimbArena<T> {
    /// One slot per gate of a `gates`-gate circuit, each holding `fill`.
    pub fn per_gate(gates: usize, fill: T) -> Self {
        LimbArena {
            slots: (0..=gates).collect(),
            limbs: vec![fill; gates],
        }
    }

    /// The arena's size in elements.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The value slot of gate `g`.
    pub fn value(&self, g: GateId) -> &[T] {
        &self.limbs[self.slots[g.0]..self.slots[g.0 + 1]]
    }

    /// Evaluates `gates` in id order, in place. Every input of a gate in
    /// the range must already hold its value; `step(g, slot, input)`
    /// writes gate `g`'s value into its slot, reading each input's slot
    /// through `input`.
    pub fn eval(
        &mut self,
        gates: Range<usize>,
        step: &impl for<'x> Fn(GateId, &mut [T], &'x dyn Fn(GateId) -> &'x [T]),
    ) {
        eval_slots(&self.slots, gates, &[], &mut self.limbs, 0, step);
    }

    /// Disjoint views of the slots of `ranges` (sorted, disjoint,
    /// self-contained `[start, end)` gate ranges: their gates read only the
    /// range itself and gates below the first range), for evaluation on
    /// separate threads once the gates below the first range hold their
    /// values.
    pub fn split(&mut self, ranges: &[(usize, usize)]) -> Vec<ArenaRange<'_, T>> {
        let first = ranges.first().map_or(0, |&(start, _)| self.slots[start]);
        let (head, mut rest) = self.limbs.split_at_mut(first);
        let head: &[T] = head;
        let mut consumed = first;
        let mut out = Vec::with_capacity(ranges.len());
        for &(start, end) in ranges {
            let (lo, hi) = (self.slots[start], self.slots[end]);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(lo - consumed);
            let (range, tail) = tail.split_at_mut(hi - lo);
            rest = tail;
            consumed = hi;
            out.push(ArenaRange {
                slots: &self.slots,
                gates: start..end,
                head,
                limbs: range,
            });
        }
        out
    }
}

/// The slots of one self-contained gate range of a [`LimbArena`]
/// ([`LimbArena::split`]).
#[derive(Debug)]
pub struct ArenaRange<'a, T> {
    slots: &'a [usize],
    gates: Range<usize>,
    /// The slots below the first range of the split.
    head: &'a [T],
    limbs: &'a mut [T],
}

impl<T> ArenaRange<'_, T> {
    /// Evaluates the range's gates in place ([`LimbArena::eval`]).
    pub fn eval(
        &mut self,
        step: &impl for<'x> Fn(GateId, &mut [T], &'x dyn Fn(GateId) -> &'x [T]),
    ) {
        let base = self.slots[self.gates.start];
        eval_slots(
            self.slots,
            self.gates.clone(),
            self.head,
            self.limbs,
            base,
            step,
        );
    }
}

/// Evaluates `gates` into `limbs`, which holds arena elements `base..`; an
/// input whose slot lies below `base` is read from `head`, which holds
/// elements `..head.len()`.
fn eval_slots<T>(
    slots: &[usize],
    gates: Range<usize>,
    head: &[T],
    limbs: &mut [T],
    base: usize,
    step: &impl for<'x> Fn(GateId, &mut [T], &'x dyn Fn(GateId) -> &'x [T]),
) {
    for g in gates {
        let (done, rest) = limbs.split_at_mut(slots[g] - base);
        let done: &[T] = done;
        let input = |i: GateId| -> &[T] {
            let (lo, hi) = (slots[i.0], slots[i.0 + 1]);
            if lo >= base {
                &done[lo - base..hi - base]
            } else {
                &head[lo..hi]
            }
        };
        step(GateId(g), &mut rest[..slots[g + 1] - slots[g]], &input);
    }
}
