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

use crate::circuit::{Circuit, Gate, GateId, VarId};
use treelineage_num::{BigUint, ErrorInterval, Rational};

/// One evaluation semantics over d-DNNF gates. `Const(b)` evaluates to
/// [`Semiring::one`] or [`Semiring::zero`], an AND gate to the product of
/// its inputs (folded left from `one`), an OR gate to their sum (folded
/// left from `zero`); only the literals are instance-specific.
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
        Gate::And(inputs) => {
            let mut acc = semiring.one();
            for &i in inputs {
                semiring.mul_assign(&mut acc, input(i));
            }
            acc
        }
        Gate::Or(inputs) => {
            let mut acc = semiring.zero();
            for &i in inputs {
                semiring.add_assign(&mut acc, input(i));
            }
            acc
        }
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
