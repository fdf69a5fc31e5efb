//! Exact rational numbers.
//!
//! Definition 3.1 of the paper represents probabilities as pairs
//! numerator/denominator; the "ra-linear" complexity measure counts arithmetic
//! operations on such rationals at unit cost. [`Rational`] is the exact
//! number type threaded through probability evaluation, weighted model
//! counting, and match counting.

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// An exact rational number, kept in lowest terms with a positive denominator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    numerator: BigInt,
    denominator: BigUint,
}

impl Rational {
    /// The value 0.
    pub fn zero() -> Self {
        Rational {
            numerator: BigInt::zero(),
            denominator: BigUint::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Rational {
            numerator: BigInt::one(),
            denominator: BigUint::one(),
        }
    }

    /// The value 1/2, the valuation used when relating probability evaluation
    /// to model counting (footnote 3 of the paper).
    pub fn one_half() -> Self {
        Rational::from_ratio_u64(1, 2)
    }

    /// Builds `n/d` from machine integers. Panics if `d == 0`.
    pub fn from_ratio_u64(n: u64, d: u64) -> Self {
        assert!(d != 0, "zero denominator");
        Rational::new(BigInt::from_u64(n), BigUint::from_u64(d))
    }

    /// Builds `n/d` from a signed numerator and unsigned denominator.
    /// Panics if `d == 0`.
    pub fn from_ratio_i64(n: i64, d: u64) -> Self {
        assert!(d != 0, "zero denominator");
        Rational::new(BigInt::from_i64(n), BigUint::from_u64(d))
    }

    /// Builds an integer-valued rational.
    fn from_integer(n: BigInt) -> Self {
        Rational {
            numerator: n,
            denominator: BigUint::one(),
        }
    }

    /// Builds a non-negative integer-valued rational from a [`BigUint`].
    pub fn from_biguint(n: BigUint) -> Self {
        Rational::from_integer(BigInt::from_biguint(n))
    }

    /// Builds a rational from an arbitrary numerator and denominator,
    /// normalizing sign and reducing to lowest terms. Panics if `d == 0`.
    pub fn new(n: BigInt, d: BigUint) -> Self {
        assert!(!d.is_zero(), "zero denominator");
        let mut out = Rational {
            numerator: n,
            denominator: d,
        };
        out.reduce();
        out
    }

    /// Exact conversion from an `f64` that is a dyadic rational produced by
    /// ordinary probability inputs (e.g. `0.5`, `0.25`). Returns `None` for
    /// NaN or infinite values.
    pub fn from_f64_dyadic(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let (mantissa, exp) = dyadic_parts(v);
        let m = BigUint::from_u64(mantissa);
        let out = if exp >= 0 {
            Rational::from_biguint(&m * &BigUint::pow2(exp as usize))
        } else {
            Rational::new(BigInt::from_biguint(m), BigUint::pow2((-exp) as usize))
        };
        Some(if v < 0.0 { -out } else { out })
    }

    /// The numerator (signed, in lowest terms).
    pub fn numerator(&self) -> &BigInt {
        &self.numerator
    }

    /// The denominator (positive, in lowest terms).
    pub fn denominator(&self) -> &BigUint {
        &self.denominator
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numerator.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.denominator.is_one() && self.numerator == BigInt::one()
    }

    /// Returns `true` if the value lies in the closed interval \[0, 1\]
    /// (i.e. it is a valid probability).
    pub fn is_probability(&self) -> bool {
        !self.numerator.is_negative() && self.numerator.magnitude() <= &self.denominator
    }

    /// `1 - self`; the probability of the complementary event.
    pub fn complement(&self) -> Self {
        &Rational::one() - self
    }

    /// Correctly-rounded conversion to `f64` (round to nearest, ties to
    /// even; values past `f64::MAX` round to the infinity of matching sign).
    ///
    /// When `|n|, d < 2^53` both convert to `f64` exactly and the one IEEE
    /// division `n / d` is already the correctly rounded quotient. Every
    /// other value goes through [`Rational::to_f64_bounds`]: the two
    /// candidate floats come from the certified bracket, and the nearest one
    /// is selected by exact rational comparison against their midpoint — no
    /// rounding analysis of the fast approximation is trusted.
    pub fn to_f64(&self) -> f64 {
        match self.small_quotient() {
            Some(q) => {
                debug_assert_eq!(q.to_bits(), self.to_f64_via_bounds().to_bits());
                q
            }
            None => self.to_f64_via_bounds(),
        }
    }

    /// The general path of [`Rational::to_f64`]: round the certified bracket
    /// to its nearer endpoint.
    fn to_f64_via_bounds(&self) -> f64 {
        let (lo, hi) = self.to_f64_bounds();
        if lo == hi {
            return lo;
        }
        // Past the finite range the optimal bracket is (MAX, inf) or its
        // dual; conventional overflow rounds to the infinite endpoint.
        if lo == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        if hi == f64::INFINITY {
            return f64::INFINITY;
        }
        // `lo` and `hi` are adjacent floats; their midpoint is a dyadic
        // rational, so round-to-nearest is an exact comparison.
        let mid = match (Rational::from_f64_dyadic(lo), Rational::from_f64_dyadic(hi)) {
            (Some(lo), Some(hi)) => &(&lo + &hi) * &Rational::one_half(),
            _ => unreachable!("both bracket endpoints are finite here"),
        };
        match self.cmp(&mid) {
            Ordering::Less => lo,
            Ordering::Greater => hi,
            // Exact tie: pick the even mantissa (adjacent floats differ by
            // one bit, so exactly one of the two is even).
            Ordering::Equal => {
                if lo.to_bits() & 1 == 0 {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    /// `(|n|, d)` as machine words when both fit in a `u64`: the range of
    /// the `u128` fast path of [`Rational::cmp_f64`].
    fn small_parts(&self) -> Option<(u64, u64)> {
        Some((
            self.numerator.magnitude().to_u64()?,
            self.denominator.to_u64()?,
        ))
    }

    /// `n / d` in one IEEE division when `|n|, d < 2^53`. Both operands then
    /// convert to `f64` exactly, so the quotient is the correctly rounded
    /// value of the rational (round to nearest, ties to even).
    fn small_quotient(&self) -> Option<f64> {
        const EXACT: u64 = 1 << f64::MANTISSA_DIGITS;
        let (n, d) = self.small_parts()?;
        if n >= EXACT || d >= EXACT {
            return None;
        }
        let q = n as f64 / d as f64;
        Some(if self.numerator.is_negative() { -q } else { q })
    }

    /// Exact comparison against an `f64`: `Some(self.cmp(f))` with `f` read
    /// as the real number it denotes (finite floats are dyadic rationals,
    /// and `±inf` lie beyond every rational), `None` when `f` is NaN.
    ///
    /// For `f = ±m·2^e` this compares `|n|·2^-e` against `m·d·2^e` (only the
    /// non-negative shift applied) without building or reducing a rational.
    /// Unequal bit lengths decide most pairs; when `|n|` and `d` fit in a
    /// `u64`, the rest is one `u128` compare (both sides below `2^117`), and
    /// larger values shift and multiply [`BigUint`]s instead.
    pub(crate) fn cmp_f64(&self, f: f64) -> Option<Ordering> {
        if f.is_infinite() {
            // Every rational lies where zero does against an infinity.
            return 0.0.partial_cmp(&f);
        }
        // Signs first (`None` here for NaN); `Less < Equal < Greater`.
        let f_sign = f.partial_cmp(&0.0)?;
        let self_sign = match self.numerator.sign() {
            Sign::Negative => Ordering::Less,
            Sign::Zero => Ordering::Equal,
            Sign::Positive => Ordering::Greater,
        };
        if self_sign != f_sign || self_sign == Ordering::Equal {
            return Some(self_sign.cmp(&f_sign));
        }
        let (m, e) = dyadic_parts(f);
        // `|self|` vs `|f|` is `|n| · 2^lshift` vs `m · d · 2^rshift`.
        let (lshift, rshift) = if e < 0 {
            (e.unsigned_abs() as usize, 0)
        } else {
            (0, e as usize)
        };
        let magnitude = match self.small_parts() {
            Some((n, d)) => {
                let (n, md) = (u128::from(n), u128::from(m) * u128::from(d));
                let lbits = (u128::BITS - n.leading_zeros()) as usize + lshift;
                let rbits = (u128::BITS - md.leading_zeros()) as usize + rshift;
                // Equal lengths are at most 117 bits: the unshifted side is
                // `n < 2^64` or `m · d < 2^117`.
                lbits
                    .cmp(&rbits)
                    .then_with(|| (n << lshift).cmp(&(md << rshift)))
            }
            None => {
                let n = self.numerator.magnitude();
                let md = &self.denominator * &BigUint::from_u64(m);
                (n.bits() + lshift)
                    .cmp(&(md.bits() + rshift))
                    .then_with(|| (n << lshift).cmp(&(&md << rshift)))
            }
        };
        Some(if self_sign == Ordering::Greater {
            magnitude
        } else {
            magnitude.reverse()
        })
    }

    /// Fast uncertified approximation seeding the bounds fix-up. When
    /// `|n|, d < 2^53` it is the correctly rounded quotient. Otherwise both
    /// sides are truncated to their top 63 bits with the cut exponents
    /// tracked explicitly, so the quotient is computed on `u64`-sized
    /// operands at full `f64` precision and then scaled by an exact power
    /// of two. Within a few ulps of the exact value on the whole `f64` range.
    fn to_f64_approx(&self) -> f64 {
        if let Some(q) = self.small_quotient() {
            return q;
        }
        let n = self.numerator.magnitude();
        let d = &self.denominator;
        let n_shift = n.bits().saturating_sub(63);
        let d_shift = d.bits().saturating_sub(63);
        let n_top = (n >> n_shift).to_u64().expect("63 bits fit in u64") as f64;
        let d_top = (d >> d_shift).to_u64().expect("63 bits fit in u64") as f64;
        let magnitude = ldexp(n_top / d_top, n_shift as i64 - d_shift as i64);
        if self.numerator.is_negative() {
            -magnitude
        } else {
            magnitude
        }
    }

    /// The tightest pair of `f64` bounds around the exact value:
    /// `lo` is the largest `f64` with `lo <= self` and `hi` the smallest
    /// with `self <= hi` (so `lo == hi` exactly when the value is
    /// representable, and otherwise `hi == lo.next_up()`). Values beyond
    /// `f64` range get the saturating bound (`f64::MAX`/`inf` and duals).
    ///
    /// This is the certified conversion the interval fast-path is built on:
    /// the fast candidate of `to_f64_approx` is *verified and corrected by
    /// exact comparison* (`cmp_f64`; finite floats are dyadic
    /// rationals), so no rounding analysis of the approximation is trusted.
    /// The walk finds `lo` and derives `hi` from it. When `|n|, d < 2^53`
    /// the candidate is the correctly rounded quotient, so the walk takes
    /// one to three word-sized comparisons.
    pub fn to_f64_bounds(&self) -> (f64, f64) {
        let mut lo = self.to_f64_approx();
        debug_assert!(!lo.is_nan());
        // Where the value lies against `lo`; never `None` (no NaN candidate)
        // and never `Less` at `-inf`, so the walk down ends.
        let mut side = self.cmp_f64(lo);
        while side == Some(Ordering::Less) {
            lo = lo.next_down();
            side = self.cmp_f64(lo);
        }
        // Largest f64 <= self: step up while the next float still is. The
        // value is below `+inf`, so the walk up ends too.
        while side == Some(Ordering::Greater) {
            let up = lo.next_up();
            match self.cmp_f64(up) {
                Some(Ordering::Less) => return (lo, up),
                next => (lo, side) = (up, next),
            }
        }
        (lo, lo)
    }

    /// Multiplicative inverse. Panics if the value is zero.
    pub fn reciprocal(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        let sign = self.numerator.sign();
        let n = BigInt::from_sign_magnitude(sign, self.denominator.clone());
        Rational::new(n, self.numerator.magnitude().clone())
    }

    /// `self^exp` for a machine-sized exponent.
    pub fn pow(&self, exp: u32) -> Self {
        let mut acc = Rational::one();
        for _ in 0..exp {
            acc = &acc * self;
        }
        acc
    }

    fn reduce(&mut self) {
        if self.numerator.is_zero() {
            self.denominator = BigUint::one();
            return;
        }
        let mut g = self.numerator.magnitude().gcd(&self.denominator);
        if g.is_one() {
            return;
        }
        // Shift out the gcd's power-of-two part first, in place: a
        // multi-limb divisor takes `div_rem`'s bit-at-a-time loop, and
        // dyadic gcds (the all-½ valuations) would otherwise all pay it.
        let (sign, mut n) = std::mem::replace(&mut self.numerator, BigInt::zero()).into_parts();
        let mut d = std::mem::take(&mut self.denominator);
        let twos = g.trailing_zeros();
        for x in [&mut n, &mut d, &mut g] {
            x.shr_assign_bits(twos);
        }
        if !g.is_one() {
            n = n.div_rem(&g).0;
            d = d.div_rem(&g).0;
        }
        self.numerator = BigInt::from_sign_magnitude(sign, n);
        self.denominator = d;
    }
}

/// `|v| = m · 2^e` exactly, for a finite nonzero `v` (subnormals included).
fn dyadic_parts(v: f64) -> (u64, i64) {
    let bits = v.to_bits();
    let exponent = ((bits >> 52) & 0x7FF) as i64;
    let fraction = bits & 0xF_FFFF_FFFF_FFFF;
    if exponent == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), exponent - 1075)
    }
}

/// `x * 2^exp` without `libm`: scales in chunks of `2^±1000` (each chunk
/// factor is exactly representable, so only the final step can round — into
/// the subnormal range or to `±inf`, which is the correct saturating
/// behaviour for an approximate conversion).
fn ldexp(x: f64, exp: i64) -> f64 {
    let mut x = x;
    let mut exp = exp;
    while exp > 0 {
        let step = exp.min(1000);
        x *= 2f64.powi(step as i32);
        exp -= step;
    }
    while exp < 0 {
        let step = exp.max(-1000);
        x *= 2f64.powi(step as i32);
        exp -= step;
    }
    x
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denominator.is_one() {
            write!(f, "{}", self.numerator)
        } else {
            write!(f, "{}/{}", self.numerator, self.denominator)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b cmp c/d  <=>  a*d cmp c*b   (b, d > 0)
        let lhs = &self.numerator * &BigInt::from_biguint(other.denominator.clone());
        let rhs = &other.numerator * &BigInt::from_biguint(self.denominator.clone());
        lhs.cmp(&rhs)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numerator: -self.numerator,
            denominator: self.denominator,
        }
    }
}

impl Add<&Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        let n = &(&self.numerator * &BigInt::from_biguint(rhs.denominator.clone()))
            + &(&rhs.numerator * &BigInt::from_biguint(self.denominator.clone()));
        let d = &self.denominator * &rhs.denominator;
        Rational::new(n, d)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self + &(-rhs.clone())
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl Mul<&Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        let n = &self.numerator * &rhs.numerator;
        let d = &self.denominator * &rhs.denominator;
        Rational::new(n, d)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div<&Rational> for &Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as reciprocal multiplication
    fn div(self, rhs: &Rational) -> Rational {
        self * &rhs.reciprocal()
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let r = Rational::from_ratio_u64(6, 8);
        assert_eq!(r.numerator().to_i64(), Some(3));
        assert_eq!(r.denominator().to_u64(), Some(4));
        let z = Rational::from_ratio_i64(0, 17);
        assert!(z.is_zero());
        assert_eq!(z.denominator().to_u64(), Some(1));
    }

    #[test]
    fn arithmetic_small() {
        let a = Rational::from_ratio_u64(1, 3);
        let b = Rational::from_ratio_u64(1, 6);
        assert_eq!(&a + &b, Rational::from_ratio_u64(1, 2));
        assert_eq!(&a - &b, Rational::from_ratio_u64(1, 6));
        assert_eq!(&a * &b, Rational::from_ratio_u64(1, 18));
        assert_eq!(&a / &b, Rational::from_ratio_u64(2, 1));
    }

    #[test]
    fn negative_values() {
        let a = Rational::from_ratio_i64(-1, 2);
        let b = Rational::from_ratio_u64(1, 4);
        assert_eq!(&a + &b, Rational::from_ratio_i64(-1, 4));
        assert_eq!(&a * &b, Rational::from_ratio_i64(-1, 8));
        assert!(a < b);
        assert!(!a.is_probability());
    }

    #[test]
    fn probability_range() {
        assert!(Rational::zero().is_probability());
        assert!(Rational::one().is_probability());
        assert!(Rational::one_half().is_probability());
        assert!(!Rational::from_ratio_u64(3, 2).is_probability());
    }

    #[test]
    fn complement() {
        assert_eq!(
            Rational::from_ratio_u64(1, 4).complement(),
            Rational::from_ratio_u64(3, 4)
        );
        assert_eq!(Rational::one().complement(), Rational::zero());
    }

    #[test]
    fn reciprocal_and_pow() {
        assert_eq!(
            Rational::from_ratio_u64(2, 5).reciprocal(),
            Rational::from_ratio_u64(5, 2)
        );
        assert_eq!(
            Rational::one_half().pow(10),
            Rational::from_ratio_u64(1, 1024)
        );
        assert_eq!(Rational::from_ratio_u64(7, 3).pow(0), Rational::one());
    }

    #[test]
    #[should_panic]
    fn reciprocal_of_zero_panics() {
        let _ = Rational::zero().reciprocal();
    }

    #[test]
    fn from_f64_dyadic_exact() {
        assert_eq!(
            Rational::from_f64_dyadic(0.5).unwrap(),
            Rational::one_half()
        );
        assert_eq!(
            Rational::from_f64_dyadic(0.25).unwrap(),
            Rational::from_ratio_u64(1, 4)
        );
        assert_eq!(
            Rational::from_f64_dyadic(-1.5).unwrap(),
            Rational::from_ratio_i64(-3, 2)
        );
        assert_eq!(Rational::from_f64_dyadic(0.0).unwrap(), Rational::zero());
        assert_eq!(
            Rational::from_f64_dyadic(3.0).unwrap(),
            Rational::from_ratio_u64(3, 1)
        );
        assert!(Rational::from_f64_dyadic(f64::NAN).is_none());
        assert!(Rational::from_f64_dyadic(f64::INFINITY).is_none());
    }

    #[test]
    fn to_f64_roundtrip() {
        for (n, d) in [(1u64, 2u64), (3, 4), (7, 8), (1, 1), (0, 1), (5, 16)] {
            let r = Rational::from_ratio_u64(n, d);
            assert!((r.to_f64() - n as f64 / d as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn ordering() {
        let vals: Vec<Rational> = [(1i64, 3u64), (1, 2), (2, 3), (-1, 2), (0, 1)]
            .iter()
            .map(|&(n, d)| Rational::from_ratio_i64(n, d))
            .collect();
        let as_f64: Vec<f64> = vals.iter().map(|r| r.to_f64()).collect();
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(
                    vals[i].cmp(&vals[j]),
                    as_f64[i].partial_cmp(&as_f64[j]).unwrap()
                );
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(Rational::from_ratio_u64(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_ratio_u64(4, 2).to_string(), "2");
        assert_eq!(Rational::from_ratio_i64(-3, 9).to_string(), "-1/3");
    }

    #[test]
    fn sum_of_possible_world_probabilities_is_one() {
        // Sanity check of the TID semantics at the arithmetic level: with
        // three facts of probability 1/2, 1/3, 2/5 the 8 world probabilities
        // sum to 1.
        let probs = [
            Rational::one_half(),
            Rational::from_ratio_u64(1, 3),
            Rational::from_ratio_u64(2, 5),
        ];
        let mut total = Rational::zero();
        for mask in 0..8u32 {
            let mut w = Rational::one();
            for (i, p) in probs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    w = &w * p;
                } else {
                    w = &w * &p.complement();
                }
            }
            total = &total + &w;
        }
        assert!(total.is_one());
    }
}

/// The float conversions against exact references: [`Rational::to_f64`]'s
/// one-division fast path bit for bit against midpoint rounding of the
/// certified bracket, [`Rational::to_f64_bounds`] against its definition, and
/// [`Rational::cmp_f64`] against comparison through a reduced
/// [`Rational::from_f64_dyadic`].
#[cfg(test)]
mod conversion_proptests {
    use super::*;
    use proptest::prelude::*;

    const TWO_53: u64 = 1 << 53;

    /// `(n, d)` for one of the shapes the conversions are checked on; `a`, `b`
    /// and `k` are the raw random draws.
    fn shape(kind: u8, a: u64, b: u64, k: u32) -> (BigUint, BigUint) {
        let big = |v: u64| BigUint::from_u64(v);
        match kind {
            // Random a/b inside the fast range, and over full words.
            0 => (big(a % TWO_53), big(b % TWO_53 + 1)),
            1 => (big(a), big(b | 1)),
            // Powers of two over powers of two, and over random d.
            2 => (
                BigUint::pow2((k % 1100) as usize),
                BigUint::pow2((a % 64) as usize),
            ),
            3 => (BigUint::pow2((k % 53) as usize), big(b % TWO_53 + 1)),
            // Near 0 (1/d) and near 1 ((d ± 1)/d).
            4 => (big(1 + a % 3), big(b % TWO_53 + 1)),
            5 => {
                let d = b % TWO_53 + 2;
                (big(if a.is_multiple_of(2) { d - 1 } else { d + 1 }), big(d))
            }
            // Exact ties (an odd 54-bit numerator over a power of two, times
            // a common factor c) and the numerators one unit either side.
            6 => {
                let t = TWO_53 | (a % TWO_53) | 1;
                let c = 1 + b % 1000;
                let n = (u128::from(t) * u128::from(c)) as i128 + i128::from(k % 3) - 1;
                (
                    BigUint::from_u128(n as u128),
                    &BigUint::pow2((k % 64) as usize) * &big(c),
                )
            }
            // n or d straddling the 2^53 boundary.
            7 => (big(TWO_53 - 1 + u64::from(k % 3)), big(b % TWO_53 + 1)),
            _ => (big(a % TWO_53), big(TWO_53 - 1 + u64::from(k % 3))),
        }
    }

    /// The comparator's reference: build the reduced rational of `f`.
    fn cmp_by_rational(r: &Rational, f: f64) -> Option<Ordering> {
        if f.is_nan() {
            None
        } else if f.is_infinite() {
            Some(if f > 0.0 {
                Ordering::Less
            } else {
                Ordering::Greater
            })
        } else {
            Rational::from_f64_dyadic(f).map(|x| r.cmp(&x))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn float_conversions_match_exact_references(
            kind in 0u8..9, a in any::<u64>(), b in any::<u64>(), k in 0u32..1 << 20,
            negate in any::<bool>(), probe in any::<u64>(),
        ) {
            let (n, d) = shape(kind, a, b, k);
            let mut r = Rational::new(BigInt::from_biguint(n), d);
            if negate {
                r = -r;
            }
            // `lo == hi == r`, or adjacent floats strictly around `r`.
            let (lo, hi) = r.to_f64_bounds();
            let tight = if lo.to_bits() == hi.to_bits() {
                (Ordering::Equal, Ordering::Equal)
            } else {
                prop_assert_eq!(hi.to_bits(), lo.next_up().to_bits(), "bounds of {}", r);
                (Ordering::Greater, Ordering::Less)
            };
            let sides = (cmp_by_rational(&r, lo), cmp_by_rational(&r, hi));
            prop_assert_eq!(sides, (Some(tight.0), Some(tight.1)), "bounds of {}", r);
            prop_assert_eq!(r.to_f64().to_bits(), r.to_f64_via_bounds().to_bits(), "to_f64 of {}", r);
            let probes = [
                lo, hi, lo.next_down(), hi.next_up(), r.to_f64(), 0.0, -0.0,
                f64::from_bits(probe), f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
                f64::MIN_POSITIVE, 5e-324, f64::MAX,
            ];
            for f in probes {
                prop_assert_eq!(r.cmp_f64(f), cmp_by_rational(&r, f), "{} vs {:e}", r, f);
            }
        }
    }
}
