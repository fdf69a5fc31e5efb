//! The fraction-free exact pass in one flat limb arena: the [`eval_gate`]
//! recurrence over integers, with every gate's value in a fixed
//! two's-complement slot of a single `u64` buffer, sized before evaluation.
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
//! lays the arena out.
//!
//! **Exactness.** The slots wrap modulo `2^(64·w)`; since the true value of
//! every gate fits its slot, every wrapped sum and truncated product is the
//! exact one, and negative or zero weights need no special case.
//!
//! [`eval_gate`]: crate::eval_gate

use crate::circuit::{Circuit, Gate, GateId, VarId};
use std::ops::Range;
use treelineage_num::limbs;

/// The limb slots of every gate of a circuit, laid out by the a priori bit
/// bounds of the module docs: gate `g` owns limbs `slots[g]..slots[g + 1]`,
/// in gate-id order, so a contiguous gate range owns a contiguous limb
/// range.
#[derive(Debug)]
pub struct LimbArena {
    slots: Vec<usize>,
    limbs: Vec<u64>,
}

/// The value of a constant gate, for fragments that do not own its slot.
const CONSTANTS: [[u64; 1]; 2] = [[0], [1]];

impl LimbArena {
    /// The bound pass: lays out the slots of `circuit`'s gates when the
    /// literals of variable `v` have bit bound `literal_bits(v)`.
    pub fn new(circuit: &Circuit, literal_bits: impl Fn(VarId) -> usize) -> Self {
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
            limbs: vec![0; total],
        }
    }

    /// The arena's size in limbs.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The two's-complement value slot of gate `g`.
    pub fn value(&self, g: GateId) -> &[u64] {
        &self.limbs[self.slots[g.0]..self.slots[g.0 + 1]]
    }

    /// Evaluates `gates` in id order, in place. Every input of a gate in
    /// the range must already hold its value; `literal(v, positive)` gives
    /// the integer weight of `v`'s positive or negative literal.
    pub fn eval<'w>(
        &mut self,
        circuit: &Circuit,
        gates: Range<usize>,
        literal: &impl Fn(VarId, bool) -> &'w [u64],
    ) {
        eval_slots(circuit, &self.slots, gates, &mut self.limbs, 0, literal);
    }

    /// Disjoint views of the slots of `ranges` (sorted, disjoint,
    /// self-contained `[start, end)` gate ranges: their gates read only the
    /// range itself and the constant gates), for evaluation on separate
    /// threads.
    pub fn split(&mut self, ranges: &[(usize, usize)]) -> Vec<ArenaRange<'_>> {
        let mut rest: &mut [u64] = &mut self.limbs;
        let mut consumed = 0;
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
                limbs: range,
            });
        }
        out
    }
}

/// The slots of one self-contained gate range of a [`LimbArena`]
/// ([`LimbArena::split`]).
#[derive(Debug)]
pub struct ArenaRange<'a> {
    slots: &'a [usize],
    gates: Range<usize>,
    limbs: &'a mut [u64],
}

impl ArenaRange<'_> {
    /// Evaluates the range's gates in place ([`LimbArena::eval`]).
    pub fn eval<'w>(&mut self, circuit: &Circuit, literal: &impl Fn(VarId, bool) -> &'w [u64]) {
        let base = self.slots[self.gates.start];
        eval_slots(
            circuit,
            self.slots,
            self.gates.clone(),
            self.limbs,
            base,
            literal,
        );
    }
}

/// Evaluates `gates` into `limbs`, which holds arena limbs `base..`; an
/// input whose slot lies below `base` must be a constant gate.
fn eval_slots<'w>(
    circuit: &Circuit,
    slots: &[usize],
    gates: Range<usize>,
    limbs: &mut [u64],
    base: usize,
    literal: &impl Fn(VarId, bool) -> &'w [u64],
) {
    for g in gates {
        let (done, rest) = limbs.split_at_mut(slots[g] - base);
        let done: &[u64] = done;
        let input = |i: GateId| -> &[u64] {
            if slots[i.0] >= base {
                &done[slots[i.0] - base..slots[i.0 + 1] - base]
            } else if let Gate::Const(b) = circuit.gate(i) {
                &CONSTANTS[usize::from(b)]
            } else {
                unreachable!("self-contained ranges read only themselves and constants")
            }
        };
        eval_gate_limbs(
            circuit,
            GateId(g),
            &mut rest[..slots[g + 1] - slots[g]],
            input,
            literal,
        );
    }
}

/// The gate step of the arena pass: [`crate::eval_gate`]'s dispatch, with
/// the [`crate::Wmc`] literal rule, writing gate `id`'s value into `out`.
fn eval_gate_limbs<'a, 'w>(
    circuit: &Circuit,
    id: GateId,
    out: &mut [u64],
    input: impl Fn(GateId) -> &'a [u64],
    literal: impl Fn(VarId, bool) -> &'w [u64],
) {
    match circuit.gate(id) {
        Gate::Var(v) => limbs::copy(out, literal(v, true)),
        Gate::Const(b) => limbs::set_bool(out, b),
        Gate::Not(i) => match circuit.gate(i) {
            Gate::Var(v) => limbs::copy(out, literal(v, false)),
            Gate::Const(b) => limbs::set_bool(out, !b),
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
