//! Fixed-width two's-complement integers on little-endian `u64` limb
//! slices: the arithmetic of the fraction-free exact pass.
//!
//! A slot of `w` limbs holds an integer modulo `2^(64·w)`; read as two's
//! complement, it is exact for every value in `[-2^(64w-1), 2^(64w-1))`.
//! Addition with carry and truncated products are ring operations modulo
//! `2^(64·w)`, so a chain of them is exact whenever the true final value
//! fits its slot, whatever the signs of the operands. Operands narrower
//! than the destination are sign-extended on the fly. Nothing here
//! allocates except the [`IntWeights`] tables and the conversions to
//! [`BigInt`]/[`BigUint`].

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use crate::rational::Rational;

/// The number of limbs of a slot that holds every integer of magnitude at
/// most `2^bits`: `bits + 1` magnitude bits (the bound can be attained)
/// plus a sign bit.
#[inline]
pub fn width(bits: usize) -> usize {
    (bits + 2).div_ceil(64)
}

/// The sign-extension limb of `x`: all ones when `x` is negative.
#[inline]
fn sign_fill(x: &[u64]) -> u64 {
    match x.last() {
        Some(&top) if (top as i64) < 0 => u64::MAX,
        _ => 0,
    }
}

/// The low 128 bits of `x`, sign-extended.
#[inline]
fn low128(x: &[u64]) -> u128 {
    match x {
        [] => 0,
        [a] => *a as i64 as i128 as u128,
        [a, b, ..] => u128::from(*a) | u128::from(*b) << 64,
    }
}

/// `[a, b] ← v`.
#[inline]
fn set128(a: &mut u64, b: &mut u64, v: u128) {
    (*a, *b) = (v as u64, (v >> 64) as u64);
}

/// `out ← x`, sign-extended (or truncated) to `out.len()` limbs.
#[inline]
pub fn copy(out: &mut [u64], x: &[u64]) {
    match out {
        [a] => *a = low128(x) as u64,
        [a, b] => set128(a, b, low128(x)),
        _ => {
            let ext = sign_fill(x);
            for (i, o) in out.iter_mut().enumerate() {
                *o = x.get(i).copied().unwrap_or(ext);
            }
        }
    }
}

/// `out ← value` for a Boolean constant (`1` or `0`).
#[inline]
pub fn set_bool(out: &mut [u64], value: bool) {
    out.fill(0);
    out[0] = u64::from(value);
}

/// `acc ← acc + x  (mod 2^(64·acc.len()))`, with `x` sign-extended.
#[inline]
pub fn add_assign(acc: &mut [u64], x: &[u64]) {
    // One- and two-limb slots (most gates) in machine arithmetic.
    match acc {
        [a] => *a = a.wrapping_add(low128(x) as u64),
        [a, b] => {
            let v = (u128::from(*a) | u128::from(*b) << 64).wrapping_add(low128(x));
            set128(a, b, v);
        }
        _ => add_assign_wide(acc, x),
    }
}

fn add_assign_wide(acc: &mut [u64], x: &[u64]) {
    let n = x.len().min(acc.len());
    let mut carry = false;
    for (a, &b) in acc[..n].iter_mut().zip(&x[..n]) {
        let (s, c1) = a.overflowing_add(b);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *a = s;
        carry = c1 | c2;
    }
    let ext = sign_fill(x);
    for a in &mut acc[n..] {
        if ext == 0 && !carry {
            break;
        }
        let (s, c1) = a.overflowing_add(ext);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *a = s;
        carry = c1 | c2;
    }
}

/// `acc ← acc · x  (mod 2^(64·acc.len()))`, with `x` sign-extended, in
/// place: the limbs of `acc` are consumed from the top down, and limb `i`'s
/// partial product only lands on limbs `≥ i`, which hold partial results
/// already, never unread factors.
#[inline]
pub fn mul_assign(acc: &mut [u64], x: &[u64]) {
    match acc {
        [a] => *a = a.wrapping_mul(low128(x) as u64),
        [a, b] => {
            let v = (u128::from(*a) | u128::from(*b) << 64).wrapping_mul(low128(x));
            set128(a, b, v);
        }
        _ => mul_assign_wide(acc, x),
    }
}

fn mul_assign_wide(acc: &mut [u64], x: &[u64]) {
    let ext = sign_fill(x);
    for i in (0..acc.len()).rev() {
        let a = std::mem::replace(&mut acc[i], 0);
        if a != 0 {
            mul_add_word(&mut acc[i..], x, ext, a);
        }
    }
}

/// `out ← out + a · x  (mod 2^(64·out.len()))`; `ext` is `x`'s
/// sign-extension limb.
#[inline]
fn mul_add_word(out: &mut [u64], x: &[u64], ext: u64, a: u64) {
    let n = x.len().min(out.len());
    let mut carry = 0u64;
    for (o, &b) in out[..n].iter_mut().zip(&x[..n]) {
        let t = u128::from(*o) + u128::from(a) * u128::from(b) + u128::from(carry);
        *o = t as u64;
        carry = (t >> 64) as u64;
    }
    for o in &mut out[n..] {
        if ext == 0 && carry == 0 {
            break;
        }
        let t = u128::from(*o) + u128::from(a) * u128::from(ext) + u128::from(carry);
        *o = t as u64;
        carry = (t >> 64) as u64;
    }
}

/// `out ← ±magnitude` in two's complement (`out` must hold the value).
fn write_small(out: &mut [u64], negative: bool, magnitude: u128) {
    out.fill(0);
    out[0] = magnitude as u64;
    if out.len() > 1 {
        out[1] = (magnitude >> 64) as u64;
    }
    if negative {
        negate(out);
    }
}

/// `x ← -x  (mod 2^(64·x.len()))`.
fn negate(x: &mut [u64]) {
    let mut carry = true;
    for limb in x {
        (*limb, carry) = (!*limb).overflowing_add(u64::from(carry));
    }
}

/// `out ← n` in two's complement (`out` must hold the value).
fn write_int(out: &mut [u64], n: &BigInt) {
    out.fill(0);
    for (i, limb) in n.magnitude().limbs32().iter().enumerate() {
        out[i / 2] |= u64::from(*limb) << (32 * (i % 2));
    }
    if n.is_negative() {
        negate(out);
    }
}

/// The integer a two's-complement slot holds.
fn to_bigint(x: &[u64]) -> BigInt {
    if sign_fill(x) == 0 {
        return BigInt::from_biguint(to_biguint(x));
    }
    // The magnitude limb by limb: `!x + 1` with the carry folded in.
    let mut carry = true;
    let magnitude = x.iter().map(|&limb| {
        let m;
        (m, carry) = (!limb).overflowing_add(u64::from(carry));
        m
    });
    BigInt::from_sign_magnitude(Sign::Negative, BigUint::from_u64_limbs(magnitude))
}

/// The unsigned integer of little-endian limbs.
pub fn to_biguint(x: &[u64]) -> BigUint {
    BigUint::from_u64_limbs(x.iter().copied())
}

/// `⌈log2 x⌉` (0 for `x ≤ 1`).
fn ceil_log2(x: u128) -> usize {
    if x <= 1 {
        0
    } else {
        128 - (x - 1).leading_zeros() as usize
    }
}

/// `(is negative, magnitude)` of `n` when `|n| < 2^64`.
fn small(n: &BigInt) -> Option<(bool, u128)> {
    Some((n.is_negative(), u128::from(n.magnitude().to_u64()?)))
}

/// `a - b` for small signed values, as `(is negative, magnitude)`.
fn sub_small((an, a): (bool, u128), (bn, b): (bool, u128)) -> (bool, u128) {
    // Both magnitudes are below 2^64, so every step stays in range.
    let (a, b) = (
        if an { -(a as i128) } else { a as i128 },
        if bn { -(b as i128) } else { b as i128 },
    );
    let d = a - b;
    (d < 0, d.unsigned_abs())
}

/// Binary gcd of two machine words.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Integer literal weights of a sequence of events, scaled out of their
/// rationals for a fraction-free pass: event `i` weighs `pos_i / c_i` as a
/// positive literal and `neg_i / c_i` as a negative one, the integers
/// `pos_i`, `neg_i` sit side by side in one limb slot pair of
/// [`width`]`(bits_i)` limbs each, where `bits_i = ⌈log2(|pos_i| +
/// |neg_i|)⌉`, and `∏ c_i` accumulates in limbs. The table keeps the
/// running sums of the `bits_i` ([`IntWeights::prefix_bits`]), so the bit
/// bound of any run of consecutive events is one subtraction. A weight
/// whose numerator and denominator fit a `u64` is scaled in machine words;
/// larger ones go through [`BigInt`].
#[derive(Debug)]
pub struct IntWeights {
    /// Entry `i + 1` for event `i`: `(offset of pos in limbs, limbs per
    /// weight, bits of the events up to and including this one)`; entry 0
    /// is `(0, 0, 0)`, so every prefix sum is one load.
    events: Vec<(usize, usize, usize)>,
    limbs: Vec<u64>,
    /// `∏ c_i`, unsigned little-endian.
    scale: Vec<u64>,
}

impl IntWeights {
    /// An empty table with room for `events` events of up to two limbs
    /// per weight.
    pub fn with_capacity(events: usize) -> Self {
        let mut scale = Vec::with_capacity(events / 4 + 4);
        scale.push(1);
        let mut entries = Vec::with_capacity(events + 1);
        entries.push((0, 0, 0));
        IntWeights {
            events: entries,
            limbs: Vec::with_capacity(4 * events),
            scale,
        }
    }

    /// `Σ_{i < k} bits_i`, where `bits_i = ⌈log2(|pos_i| + |neg_i|)⌉` is
    /// the bit bound of event `i`'s literals: the bit bound of events
    /// `lo..hi` together is `prefix_bits(hi) - prefix_bits(lo)`.
    pub fn prefix_bits(&self, k: usize) -> usize {
        self.events[k].2
    }

    /// Event `i`'s positive (`true`) or negative integer weight.
    pub fn literal(&self, i: usize, positive: bool) -> &[u64] {
        let (offset, width, _) = self.events[i + 1];
        let start = if positive { offset } else { offset + width };
        &self.limbs[start..start + width]
    }

    /// Pushes a probability `p = a/b`: `pos = a`, `neg = b - a`, `c = b`.
    pub fn push_probability(&mut self, p: &Rational) {
        let (a, b) = (p.numerator(), p.denominator());
        match (small(a), b.to_u64()) {
            (Some(a), Some(b)) => {
                let b = u128::from(b);
                self.push_small(a, sub_small((false, b), a), b);
            }
            _ => {
                let b = BigInt::from_biguint(p.denominator().clone());
                self.push_big(a, &(&b - a), p.denominator());
            }
        }
    }

    /// Pushes general weights `pos = n₁/d₁`, `neg = n₂/d₂` over
    /// `c = lcm(d₁, d₂)`: `pos_i = n₁·(d₂/g)`, `neg_i = n₂·(d₁/g)` with
    /// `g = gcd(d₁, d₂)`.
    pub fn push_weights(&mut self, pos: &Rational, neg: &Rational) {
        let (n1, d1, n2, d2) = (
            pos.numerator(),
            pos.denominator(),
            neg.numerator(),
            neg.denominator(),
        );
        if let (Some(n1), Some(d1), Some(n2), Some(d2)) =
            (small(n1), d1.to_u64(), small(n2), d2.to_u64())
        {
            let g = gcd_u64(d1, d2);
            let (k1, k2) = (u128::from(d2 / g), u128::from(d1 / g));
            // Every factor is below 2^64, so no product overflows.
            self.push_small((n1.0, n1.1 * k1), (n2.0, n2.1 * k2), k2 * u128::from(d2));
        } else {
            let g = d1.gcd(d2);
            let (k1, k2) = (d2.div_rem(&g).0, d1.div_rem(&g).0);
            let scale = &k2 * d2;
            self.push_big(
                &(n1 * &BigInt::from_biguint(k1)),
                &(n2 * &BigInt::from_biguint(k2)),
                &scale,
            );
        }
    }

    /// Pushes unit weights `pos = neg = 1`, `c = 1` (model counting).
    pub fn push_unit(&mut self) {
        self.push_small((false, 1), (false, 1), 1);
    }

    fn push_small(&mut self, pos: (bool, u128), neg: (bool, u128), scale: u128) {
        // |pos|, |neg| < 2^128, so their sum overflows only above 2^128,
        // where ⌈log2⌉ is 129.
        let bits = pos.1.checked_add(neg.1).map_or(129, ceil_log2);
        let slots = self.open(bits);
        let w = slots.len() / 2;
        write_small(&mut slots[..w], pos.0, pos.1);
        write_small(&mut slots[w..], neg.0, neg.1);
        if scale != 1 {
            // A spare zero limb keeps the factor's top bit clear.
            self.scale_by(&[scale as u64, (scale >> 64) as u64, 0]);
        }
    }

    fn push_big(&mut self, pos: &BigInt, neg: &BigInt, scale: &BigUint) {
        let sum = pos.magnitude() + neg.magnitude();
        let bits = if sum.is_zero() {
            0
        } else {
            (&sum - &BigUint::one()).bits()
        };
        let slots = self.open(bits);
        let w = slots.len() / 2;
        write_int(&mut slots[..w], pos);
        write_int(&mut slots[w..], neg);
        // One spare limb keeps the factor's top bit clear.
        let mut factor = vec![0u64; scale.bits() / 64 + 1];
        write_int(&mut factor, &BigInt::from_biguint(scale.clone()));
        self.scale_by(&factor);
    }

    /// Appends a zeroed slot pair for a new event with bit bound `bits`.
    fn open(&mut self, bits: usize) -> &mut [u64] {
        let (offset, w) = (self.limbs.len(), width(bits));
        let prefix = self.prefix_bits(self.events.len() - 1) + bits;
        self.events.push((offset, w, prefix));
        self.limbs.resize(offset + 2 * w, 0);
        &mut self.limbs[offset..]
    }

    /// `scale ← scale · factor`, for a `factor` whose top bit is clear.
    /// `scale` is widened to the product's size first, so the wrapping
    /// product is the exact unsigned one.
    fn scale_by(&mut self, factor: &[u64]) {
        self.scale.resize(self.scale.len() + factor.len(), 0);
        mul_assign(&mut self.scale, factor);
        while self.scale.len() > 1 && self.scale.last() == Some(&0) {
            self.scale.pop();
        }
    }

    /// `numerator / ∏ c_i` in lowest terms, for a two's-complement
    /// `numerator` slot.
    pub fn ratio(&self, numerator: &[u64]) -> Rational {
        Rational::new(to_bigint(numerator), to_biguint(&self.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limbs_of(v: i128, w: usize) -> Vec<u64> {
        let mut out = vec![0u64; w];
        write_small(&mut out, v < 0, v.unsigned_abs());
        out
    }

    fn value(x: &[u64]) -> i128 {
        to_bigint(x).to_string().parse().unwrap()
    }

    #[test]
    fn wrapping_ring_ops_are_exact_when_the_result_fits() {
        let cases: [i128; 9] = [
            0,
            1,
            -1,
            7,
            -9,
            1 << 40,
            -(1 << 62),
            (1 << 63) - 1,
            -(1 << 63),
        ];
        for &a in &cases {
            for &b in &cases {
                for (wa, wb) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                    let (x, y) = (limbs_of(a, wa), limbs_of(b, wb));
                    let mut sum = vec![0u64; 3];
                    copy(&mut sum, &x);
                    add_assign(&mut sum, &y);
                    assert_eq!(value(&sum), a + b, "{a} + {b}");
                    let mut prod = vec![0u64; 3];
                    copy(&mut prod, &x);
                    mul_assign(&mut prod, &y);
                    assert_eq!(value(&prod), a * b, "{a} · {b}");
                }
            }
        }
    }

    #[test]
    fn width_keeps_a_sign_bit_above_an_attained_bound() {
        assert_eq!(width(0), 1);
        assert_eq!(width(61), 1);
        assert_eq!(width(62), 1);
        assert_eq!(width(63), 2);
        assert_eq!(width(126), 2);
        assert_eq!(width(127), 3);
    }

    #[test]
    fn weights_scale_out_denominators() {
        let mut w = IntWeights::with_capacity(3);
        w.push_probability(&Rational::from_ratio_u64(3, 8));
        w.push_weights(
            &Rational::from_ratio_i64(-1, 6),
            &Rational::from_ratio_u64(3, 4),
        );
        w.push_unit();
        assert_eq!(value(w.literal(0, true)), 3);
        assert_eq!(value(w.literal(0, false)), 5);
        // lcm(6, 4) = 12: -1/6 = -2/12, 3/4 = 9/12.
        assert_eq!(value(w.literal(1, true)), -2);
        assert_eq!(value(w.literal(1, false)), 9);
        assert_eq!(value(w.literal(2, true)), 1);
        // Bit bounds 3, 4 and 1, summed.
        let prefix: Vec<usize> = (0..=3).map(|k| w.prefix_bits(k)).collect();
        assert_eq!(prefix, [0, 3, 7, 8]);
        assert_eq!(w.ratio(&[96]), Rational::one());
    }

    #[test]
    fn big_and_small_paths_agree() {
        let huge = BigInt::from_biguint(&BigUint::pow2(70) + &BigUint::from_u64(3));
        let p = Rational::new(BigInt::from_u64(5), BigUint::pow2(66));
        let q = Rational::new(huge.clone(), BigUint::from_u64(7));
        let mut w = IntWeights::with_capacity(2);
        w.push_probability(&p);
        w.push_weights(&q, &Rational::from_ratio_i64(-2, 3));
        assert_eq!(to_bigint(w.literal(0, true)), BigInt::from_u64(5));
        assert_eq!(w.prefix_bits(1), 66);
        assert_eq!(to_bigint(w.literal(1, true)), &huge * &BigInt::from_u64(3));
        assert_eq!(to_bigint(w.literal(1, false)), BigInt::from_i64(-14));
        let one = [1u64];
        assert_eq!(
            w.ratio(&one),
            Rational::new(BigInt::one(), &BigUint::pow2(66) * &BigUint::from_u64(21))
        );
    }
}
