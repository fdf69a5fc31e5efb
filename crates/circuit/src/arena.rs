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
//! with `e_v = ⌈log2(|pos_v| + |neg_v|)⌉`, the bit bound `e_g` is `e_v` at a
//! literal, 0 at a constant, the sum over an AND's inputs and the max over
//! an OR's, and gate `g` gets [`limbs::width`]`(e_g)` limbs. The bound
//! depends only on the inputs' bounds, so one pass over the gate records
//! lays the arena out. Passes whose values have a fixed size take one slot
//! per gate instead.
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
use treelineage_num::limbs;

/// The value slots of every gate of a circuit, laid out by the a priori bit
/// bounds of the module docs or one per gate: gate `g` owns elements
/// `slots[g]..slots[g + 1]`, in gate-id order, so a contiguous gate range
/// owns a contiguous slot range.
#[derive(Debug)]
pub struct LimbArena<T> {
    slots: Vec<usize>,
    limbs: Vec<T>,
}

impl<T: Copy> LimbArena<T> {
    /// The bound pass: lays out the slots of `circuit`'s gates when the
    /// literals of variable `v` have bit bound `literal_bits(v)`, or one
    /// slot per gate when `literal_bits` is `None`; every element holds
    /// `fill`.
    pub fn new(circuit: &Circuit, literal_bits: Option<&dyn Fn(VarId) -> usize>, fill: T) -> Self {
        let Some(literal_bits) = literal_bits else {
            return LimbArena {
                slots: (0..=circuit.size()).collect(),
                limbs: vec![fill; circuit.size()],
            };
        };
        // First each gate's bit bound, then, in place, its slot offset.
        let mut slots = Vec::with_capacity(circuit.size() + 1);
        for id in circuit.gate_ids() {
            let bits = match circuit.gate(id) {
                Gate::Var(v) => literal_bits(v),
                Gate::Const(_) => 0,
                // The inner gate is a literal or a constant: same bound.
                Gate::Not(i) => slots[i.0],
                Gate::And(inputs) => inputs.iter().map(|i| slots[i.0]).sum(),
                Gate::Or(inputs) => inputs.iter().map(|i| slots[i.0]).max().unwrap_or(0),
            };
            slots.push(bits);
        }
        let mut total = 0;
        for slot in &mut slots {
            let width = limbs::width(*slot);
            *slot = total;
            total += width;
        }
        slots.push(total);
        LimbArena {
            slots,
            limbs: vec![fill; total],
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
