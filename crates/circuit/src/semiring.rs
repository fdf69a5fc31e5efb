//! The one evaluation kernel for d-DNNFs: a bottom-up pass over a
//! commutative semiring (the provenance-semiring view of Green,
//! Karvounarakis and Tannen, PODS 2007).
//!
//! OR children of a d-DNNF are mutually exclusive, so their values add; AND
//! children are independent, so their values multiply. Every evaluation —
//! probability, weighted model counting, model counting, exactly or in
//! certified `f64` intervals — is this one recurrence over a different
//! [`Semiring`]. There are two runners: the sequential reference
//! ([`crate::Dnnf::evaluate`]), and the slot-arena runner of the engine
//! crate, which fills one flat [`crate::LimbArena`] fragment-parallel.
//! [`eval_gate`] is the gate step of the sequential runner and of the
//! arena's certified interval passes; the arena's exact integer [`Wmc`]
//! pass runs the same dispatch over fixed limb slots instead of values.
//!
//! A gate's fold starts from its first input, not from the identity: the
//! identity takes part only in an empty gate. Exact values are the same
//! either way, but each interval operation rounds outward by one ulp, so
//! `one ⊗ x` or `zero ⊕ x` would widen every gate's interval for nothing.

use crate::circuit::{Circuit, Gate, GateId, VarId};
use treelineage_num::{BigUint, ErrorInterval, Rational};

/// One evaluation semantics over d-DNNF gates. `Const(b)` evaluates to
/// [`Semiring::one`] or [`Semiring::zero`], an AND gate to the product of
/// its inputs, an OR gate to their sum, each folded left from its first
/// input (an empty AND is `one`, an empty OR `zero`); only the literals are
/// instance-specific.
pub trait Semiring {
    /// The value computed at every gate.
    type Value: Clone;
    /// The additive identity: empty OR, `Const(false)`.
    fn zero(&self) -> Self::Value;
    /// The multiplicative identity: empty AND, `Const(true)`.
    fn one(&self) -> Self::Value;
    /// `acc ← acc ⊕ x`.
    fn add_assign(&self, acc: &mut Self::Value, x: &Self::Value);
    /// `acc ← acc ⊗ x`.
    fn mul_assign(&self, acc: &mut Self::Value, x: &Self::Value);
    /// The weight of the positive literal `v`.
    fn var(&self, v: VarId) -> Self::Value;
    /// The value of `Not(inner)`, given the inner gate (an input: d-DNNFs
    /// negate inputs only) and the value computed for it.
    fn not(&self, inner: Gate<'_>, inner_value: &Self::Value) -> Self::Value;

    /// The value of `Const(value)`.
    fn constant(&self, value: bool) -> Self::Value {
        if value {
            self.one()
        } else {
            self.zero()
        }
    }
}

/// The gate step: the value of gate `id` of `circuit`, given the values of
/// its inputs through `input` (which the caller resolves from wherever it
/// stores them — one flat vector, or the slots of a [`crate::LimbArena`]).
// Inlined into each runner, so the arena's `&dyn` slot lookup behind
// `input` becomes a direct call.
#[inline]
pub fn eval_gate<'v, S: Semiring>(
    semiring: &S,
    circuit: &Circuit,
    id: GateId,
    input: impl Fn(GateId) -> &'v S::Value,
) -> S::Value
where
    S::Value: 'v,
{
    match circuit.gate(id) {
        Gate::Var(v) => semiring.var(v),
        Gate::Const(b) => semiring.constant(b),
        Gate::Not(i) => semiring.not(circuit.gate(i), input(i)),
        Gate::And(inputs) => match inputs.split_first() {
            None => semiring.one(),
            Some((&first, rest)) => {
                let mut acc = input(first).clone();
                for &i in rest {
                    semiring.mul_assign(&mut acc, input(i));
                }
                acc
            }
        },
        Gate::Or(inputs) => match inputs.split_first() {
            None => semiring.zero(),
            Some((&first, rest)) => {
                let mut acc = input(first).clone();
                for &i in rest {
                    semiring.add_assign(&mut acc, input(i));
                }
                acc
            }
        },
    }
}

/// The number types [`Wmc`] evaluates over: a commutative ring. Exact
/// [`Rational`]s, or [`ErrorInterval`]s with outward rounding (each
/// operation's result contains every exact result of its operands, so the
/// output interval contains the exact answer).
pub trait Ring: Clone {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// `self ← self + x`.
    fn add_assign(&mut self, x: &Self);
    /// `self ← self · x`.
    fn mul_assign(&mut self, x: &Self);
}

/// The number types [`Probability`] evaluates over: a [`Ring`] with the
/// complement `1 - x` that a `Not` gate takes of a probability.
pub trait Weight: Ring {
    /// `1 - self`.
    fn complement(&self) -> Self;
}

impl Ring for Rational {
    fn zero() -> Self {
        Rational::zero()
    }
    fn one() -> Self {
        Rational::one()
    }
    fn add_assign(&mut self, x: &Self) {
        *self += x;
    }
    fn mul_assign(&mut self, x: &Self) {
        *self *= x;
    }
}

impl Weight for Rational {
    fn complement(&self) -> Self {
        Rational::complement(self)
    }
}

impl Ring for ErrorInterval {
    fn zero() -> Self {
        ErrorInterval::zero()
    }
    fn one() -> Self {
        ErrorInterval::one()
    }
    fn add_assign(&mut self, x: &Self) {
        *self = self.add(x);
    }
    fn mul_assign(&mut self, x: &Self) {
        *self = self.mul(x);
    }
}

impl Weight for ErrorInterval {
    fn complement(&self) -> Self {
        ErrorInterval::complement(self)
    }
}

/// Probability under independent variable probabilities (the wrapped
/// closure gives `P(v)`). A `Not` gate complements its input's value — also
/// over constants, where the interval complement of `one()` rounds outward
/// instead of being `zero()`.
pub struct Probability<F>(pub F);

impl<F, V> Semiring for Probability<F>
where
    F: Fn(VarId) -> V,
    V: Weight,
{
    type Value = V;
    fn zero(&self) -> V {
        V::zero()
    }
    fn one(&self) -> V {
        V::one()
    }
    fn add_assign(&self, acc: &mut V, x: &V) {
        acc.add_assign(x);
    }
    fn mul_assign(&self, acc: &mut V, x: &V) {
        acc.mul_assign(x);
    }
    fn var(&self, v: VarId) -> V {
        (self.0)(v)
    }
    fn not(&self, _inner: Gate<'_>, inner_value: &V) -> V {
        inner_value.complement()
    }
}

/// Weighted model count with independent per-literal weights: `Not(Var v)`
/// reads `neg(v)`, `Not(Const b)` is `constant(!b)`. Correct on smooth
/// d-DNNFs only (a variable missing from an OR child's scope would count
/// with factor 1 instead of `pos(v) + neg(v)`).
///
/// Over integers this is the fraction-free exact pass, which runs in a
/// flat limb arena ([`crate::LimbArena`]): scale each variable's weights by
/// a common denominator `c_v` (for a probability `p_v = a_v/b_v`:
/// `pos = a_v`, `neg = b_v - a_v`, `c_v = b_v`), and on a smooth circuit
/// whose output mentions every variable of the universe the integer result
/// `N` gives the rational answer `N / ∏ c_v` — footnote 3's model-count ↔
/// probability identity, with one reduction at the end instead of one per
/// gate.
pub struct Wmc<P, N> {
    /// Weight of the positive literal.
    pub pos: P,
    /// Weight of the negative literal.
    pub neg: N,
}

impl<P, N, V> Semiring for Wmc<P, N>
where
    P: Fn(VarId) -> V,
    N: Fn(VarId) -> V,
    V: Ring,
{
    type Value = V;
    fn zero(&self) -> V {
        V::zero()
    }
    fn one(&self) -> V {
        V::one()
    }
    fn add_assign(&self, acc: &mut V, x: &V) {
        acc.add_assign(x);
    }
    fn mul_assign(&self, acc: &mut V, x: &V) {
        acc.mul_assign(x);
    }
    fn var(&self, v: VarId) -> V {
        (self.pos)(v)
    }
    fn not(&self, inner: Gate<'_>, _inner_value: &V) -> V {
        match inner {
            Gate::Var(v) => (self.neg)(v),
            Gate::Const(b) => self.constant(!b),
            _ => unreachable!("d-DNNFs negate inputs only"),
        }
    }
}

/// Model count of a smooth d-DNNF: every literal counts one model, and
/// `Not(Const b)` is `constant(!b)`.
pub struct Count;

impl Semiring for Count {
    type Value = BigUint;
    fn zero(&self) -> BigUint {
        BigUint::zero()
    }
    fn one(&self) -> BigUint {
        BigUint::one()
    }
    fn add_assign(&self, acc: &mut BigUint, x: &BigUint) {
        *acc = &*acc + x;
    }
    fn mul_assign(&self, acc: &mut BigUint, x: &BigUint) {
        *acc = &*acc * x;
    }
    fn var(&self, _v: VarId) -> BigUint {
        BigUint::one()
    }
    fn not(&self, inner: Gate<'_>, _inner_value: &BigUint) -> BigUint {
        match inner {
            Gate::Var(_) => BigUint::one(),
            Gate::Const(b) => self.constant(!b),
            _ => unreachable!("d-DNNFs negate inputs only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dnnf;
    use proptest::prelude::*;
    use treelineage_num::Rational;

    /// Every gate's value over `semiring`: through [`eval_gate`], or, with
    /// `from_identity`, with each AND folded from `one` and each OR from
    /// `zero` (the reference the first-input fold is checked against).
    fn gate_values<S: Semiring>(
        semiring: &S,
        circuit: &Circuit,
        from_identity: bool,
    ) -> Vec<S::Value> {
        let mut values: Vec<S::Value> = Vec::with_capacity(circuit.size());
        for id in circuit.gate_ids() {
            let value = match circuit.gate(id) {
                Gate::And(inputs) if from_identity => {
                    let mut acc = semiring.one();
                    for &i in inputs {
                        semiring.mul_assign(&mut acc, &values[i.0]);
                    }
                    acc
                }
                Gate::Or(inputs) if from_identity => {
                    let mut acc = semiring.zero();
                    for &i in inputs {
                        semiring.add_assign(&mut acc, &values[i.0]);
                    }
                    acc
                }
                _ => eval_gate(semiring, circuit, id, |i| &values[i.0]),
            };
            values.push(value);
        }
        values
    }

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// `true`, as `Const(true)`, as `Not(Const(false))` or as an empty AND.
    fn truth(c: &mut Circuit, rng: &mut TestRng) -> GateId {
        match pick(rng, 3) {
            0 => c.constant(true),
            1 => {
                let f = c.constant(false);
                c.not(f)
            }
            _ => c.and([]),
        }
    }

    /// A random smooth d-DNNF over exactly `vars`: an AND of d-DNNFs over a
    /// partition of `vars` into two or three blocks, or an OR that decides
    /// one or two variables, each branch an AND of their literals and a
    /// d-DNNF over the rest (shared between branches or not); some
    /// branches are dropped.
    fn smooth(c: &mut Circuit, vars: &[VarId], rng: &mut TestRng) -> GateId {
        match vars {
            [] => truth(c, rng),
            &[v] => {
                let x = c.var(v);
                match pick(rng, 3) {
                    0 => x,
                    1 => c.not(x),
                    _ => {
                        let nx = c.not(x);
                        c.or([x, nx])
                    }
                }
            }
            _ if pick(rng, 3) == 0 => {
                let cut = 1 + pick(rng, vars.len() - 1);
                let mut parts = vec![smooth(c, &vars[..cut], rng)];
                if vars.len() - cut >= 2 && pick(rng, 2) == 0 {
                    let mid = cut + 1 + pick(rng, vars.len() - cut - 1);
                    parts.push(smooth(c, &vars[cut..mid], rng));
                    parts.push(smooth(c, &vars[mid..], rng));
                } else {
                    parts.push(smooth(c, &vars[cut..], rng));
                }
                c.and(parts)
            }
            _ => {
                let decided = if vars.len() >= 3 { 1 + pick(rng, 2) } else { 1 };
                let (head, rest) = vars.split_at(decided);
                let shared = smooth(c, rest, rng);
                let keep = pick(rng, 1 << decided);
                let mut branches = Vec::new();
                for mask in 0..1usize << decided {
                    if mask != keep && pick(rng, 4) == 0 {
                        continue;
                    }
                    let mut parts: Vec<GateId> = head
                        .iter()
                        .enumerate()
                        .map(|(k, &v)| {
                            let x = c.var(v);
                            if mask >> k & 1 == 1 {
                                x
                            } else {
                                c.not(x)
                            }
                        })
                        .collect();
                    let sub = if pick(rng, 2) == 0 {
                        shared
                    } else {
                        smooth(c, rest, rng)
                    };
                    parts.push(sub);
                    branches.push(c.and(parts));
                }
                c.or(branches)
            }
        }
    }

    /// The run circuit of a random deterministic bottom-up automaton with
    /// `states` states on a random binary tree of `leaves` leaves, in the
    /// form the Theorem 6.11 builder emits: per node and reachable state an
    /// OR over the transitions into it, each an AND of the node's literal
    /// (for an event node) and one state gate per child; a fixed leaf's
    /// state gate is a constant. The gates of every subtree are one
    /// post-order block; the output is the OR of the accepting states.
    fn automaton_run(leaves: usize, states: usize, rng: &mut TestRng) -> Circuit {
        fn node(
            c: &mut Circuit,
            leaves: usize,
            states: usize,
            next_event: &mut usize,
            rng: &mut TestRng,
        ) -> Vec<Option<GateId>> {
            let mut ors: Vec<Vec<GateId>> = vec![Vec::new(); states];
            let children = if leaves > 1 {
                let cut = 1 + pick(rng, leaves - 1);
                let left = node(c, cut, states, next_event, rng);
                let right = node(c, leaves - cut, states, next_event, rng);
                Some((left, right))
            } else {
                None
            };
            let literals = if pick(rng, 4) == 0 {
                None
            } else {
                let x = c.var(*next_event);
                *next_event += 1;
                let nx = c.not(x);
                Some([x, nx])
            };
            let mut fixed_leaf = None;
            for b in 0..2 {
                let literal = match literals {
                    Some(pair) => vec![pair[b]],
                    None if b == 1 => break,
                    None => vec![],
                };
                match &children {
                    None if literal.is_empty() => fixed_leaf = Some(pick(rng, states)),
                    None => ors[pick(rng, states)].push(literal[0]),
                    Some((left, right)) => {
                        for l in left.iter().flatten() {
                            for r in right.iter().flatten() {
                                let mut inputs = literal.clone();
                                inputs.extend([*l, *r]);
                                let and = c.and(inputs);
                                ors[pick(rng, states)].push(and);
                            }
                        }
                    }
                }
            }
            if let Some(q) = fixed_leaf {
                let mut gates = vec![None; states];
                gates[q] = Some(truth(c, rng));
                return gates;
            }
            ors.into_iter()
                .map(|inputs| (!inputs.is_empty()).then(|| c.or(inputs)))
                .collect()
        }
        let mut c = Circuit::new();
        let root = node(&mut c, leaves, states, &mut 0, rng);
        let accepting: Vec<GateId> = root
            .into_iter()
            .flatten()
            .filter(|_| pick(rng, 2) == 0)
            .collect();
        let out = if accepting.is_empty() {
            // `false`, as `Const(false)` or as an empty OR.
            if pick(rng, 2) == 0 {
                c.constant(false)
            } else {
                c.or([])
            }
        } else {
            c.or(accepting)
        };
        c.set_output(out);
        c
    }

    /// A random smooth d-DNNF ([`smooth`] over up to 6 variables, or
    /// [`automaton_run`] on up to 6 leaves) and a seed for its weights.
    fn smooth_dnnf() -> impl Strategy<Value = (Dnnf, u64)> {
        (0u8..2, 1usize..7, any::<u64>()).prop_map(|(kind, n, seed)| {
            let mut rng = TestRng::new(seed);
            let circuit = if kind == 0 {
                let mut c = Circuit::new();
                let vars: Vec<VarId> = (0..n).collect();
                let out = smooth(&mut c, &vars, &mut rng);
                c.set_output(out);
                c
            } else {
                automaton_run(n, 2 + pick(&mut rng, 2), &mut rng)
            };
            let dnnf = Dnnf::verify(circuit).expect("generated circuits are d-DNNFs");
            assert!(dnnf.is_smooth());
            (dnnf, rng.next_u64())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding each gate from its first input changes no exact value
        /// (`Rational` probabilities and weighted counts, `Count`), and
        /// every folded interval contains the exact value and lies inside
        /// the identity fold's interval, endpoints compared exactly: it
        /// only drops outward roundings. `Dnnf::evaluate` returns the
        /// folded output, bit for bit. Weights are non-dyadic, and the
        /// weighted counts' may be negative (the sign-general product).
        #[test]
        fn first_input_fold_tightens_intervals_and_keeps_exact_values(
            (dnnf, seed) in smooth_dnnf()
        ) {
            let circuit = dnnf.circuit();
            let mut rng = TestRng::new(seed);
            let mut ratio = |signed: bool| {
                let d = 3 + rng.next_u64() % 60;
                let n = 1 + rng.next_u64() % (if signed { 3 * d } else { d - 1 });
                Rational::from_ratio_i64(n as i64 - if signed { d as i64 } else { 0 }, d)
            };
            // (probability, positive weight, negative weight) per variable.
            let table: Vec<[Rational; 3]> = (0..circuit.size())
                .map(|_| [ratio(false), ratio(true), ratio(true)])
                .collect();
            let prob = |v: VarId| table[v][0].clone();
            let pos = |v: VarId| table[v][1].clone();
            let neg = |v: VarId| table[v][2].clone();
            let iv = |f: &dyn Fn(VarId) -> Rational, v: VarId| {
                ErrorInterval::from_rational(&f(v))
            };

            let (exact_probability, exact_wmc) = (Probability(&prob), Wmc { pos: &pos, neg: &neg });
            let exact_p = gate_values(&exact_probability, circuit, false);
            let exact_w = gate_values(&exact_wmc, circuit, false);
            prop_assert_eq!(&exact_p, &gate_values(&exact_probability, circuit, true));
            prop_assert_eq!(&exact_w, &gate_values(&exact_wmc, circuit, true));
            prop_assert_eq!(
                gate_values(&Count, circuit, false),
                gate_values(&Count, circuit, true)
            );

            let probability = Probability(|v| iv(&prob, v));
            let wmc = Wmc { pos: |v| iv(&pos, v), neg: |v| iv(&neg, v) };
            let checks = [
                (
                    gate_values(&probability, circuit, true),
                    gate_values(&probability, circuit, false),
                    &exact_p,
                ),
                (
                    gate_values(&wmc, circuit, true),
                    gate_values(&wmc, circuit, false),
                    &exact_w,
                ),
            ];
            for (outer, folded, exact) in checks {
                for (g, (o, f)) in outer.iter().zip(&folded).enumerate() {
                    prop_assert!(f.contains(&exact[g]), "gate {}: {} misses {}", g, f, exact[g]);
                    prop_assert!(
                        o.lo() <= f.lo() && f.hi() <= o.hi(),
                        "gate {}: {} not in {}", g, f, o
                    );
                }
            }
            let bits = |i: ErrorInterval| (i.lo().to_bits(), i.hi().to_bits());
            let out = circuit.output().0;
            prop_assert_eq!(
                bits(dnnf.evaluate(&probability)),
                bits(gate_values(&probability, circuit, false)[out])
            );
            prop_assert_eq!(
                bits(dnnf.evaluate(&wmc)),
                bits(gate_values(&wmc, circuit, false)[out])
            );
        }
    }
}
