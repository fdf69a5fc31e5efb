//! Certified floating-point enclosures for exact rational values.
//!
//! The float fast-path of probability evaluation (ROADMAP item 2) replaces
//! each exact [`Rational`] with an [`ErrorInterval`]: a closed interval
//! `[lo, hi]` of `f64` endpoints that is *guaranteed* to contain the exact
//! real value. Interval arithmetic is performed in round-to-nearest and then
//! widened outward by one ulp on each side — since IEEE 754 basic operations
//! are correctly rounded (error at most half an ulp of the result), one
//! `next_down` / `next_up` step after every operation certifies the
//! enclosure without needing directed-rounding mode control (which stable
//! Rust does not expose). Overflow saturates to an infinite endpoint, which
//! is still a valid (if useless) bound; `NaN` intermediates (only possible
//! through `0 × ∞`) widen to the infinite endpoint conservatively.
//!
//! The product is sign-specialized. Operands of any sign take the hull of
//! the four endpoint products. Non-negative operands with finite upper
//! endpoints, the case of every probability, take two: `lo·lo'` and
//! `hi·hi'`. Round-to-nearest is monotone, so these are the least and
//! greatest of the four rounded products, and the outward-rounded result
//! has the hull's bits (`-0` and `+0` widen to the same endpoints). A
//! proptest pins the two paths to each other bit for bit.
//!
//! The containment contract — "the exact value always lies in the interval"
//! — is what the exact-fallback logic of the engine's `FloatFirst` serving
//! mode relies on: a decision threshold strictly outside the interval can be
//! answered from the float pass alone, bit-identically to what the exact
//! pass would have decided. It is pinned by proptests here and by the
//! cross-backend differential suite (`tests/approx_differential.rs`).

use crate::rational::Rational;
use std::cmp::Ordering;
use std::fmt;

/// A closed `f64` interval `[lo, hi]` certified to contain an exact value.
///
/// Invariants: `lo <= hi`, neither endpoint is `NaN`. Endpoints may be
/// infinite (the trivial bound after overflow).
#[derive(Clone, Copy, PartialEq)]
pub struct ErrorInterval {
    lo: f64,
    hi: f64,
}

/// Outward-rounded lower endpoint: one ulp below the round-to-nearest
/// result (identity on `-inf`; `NaN` conservatively becomes `-inf`).
fn down(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else {
        x.next_down()
    }
}

/// Outward-rounded upper endpoint (dual of [`down`]).
fn up(x: f64) -> f64 {
    if x.is_nan() {
        f64::INFINITY
    } else {
        x.next_up()
    }
}

impl ErrorInterval {
    /// The interval `[lo, hi]`. Panics if `lo > hi` or either endpoint is
    /// `NaN`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        ErrorInterval { lo, hi }
    }

    /// The degenerate interval containing exactly `v`.
    pub fn exact(v: f64) -> Self {
        ErrorInterval::new(v, v)
    }

    /// The exact zero interval.
    pub fn zero() -> Self {
        ErrorInterval::exact(0.0)
    }

    /// The exact one interval.
    pub fn one() -> Self {
        ErrorInterval::exact(1.0)
    }

    /// The tightest f64 enclosure of an exact rational
    /// ([`Rational::to_f64_bounds`]).
    pub fn from_rational(r: &Rational) -> Self {
        let (lo, hi) = r.to_f64_bounds();
        ErrorInterval::new(lo, hi)
    }

    /// The lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The interval width `hi - lo` (the certified absolute error bound on
    /// [`ErrorInterval::midpoint`] is half of this).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The midpoint, the natural point estimate to report; it lies inside
    /// the interval. Infinite endpoints degrade to the finite one (or `0`
    /// when both are infinite).
    pub fn midpoint(&self) -> f64 {
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => {
                let width = self.hi - self.lo;
                if width.is_finite() {
                    self.lo + width / 2.0
                } else {
                    // The width overflows only when both endpoints exceed
                    // 2^969 in magnitude, where halving is exact.
                    self.lo / 2.0 + self.hi / 2.0
                }
            }
            (true, false) => self.lo,
            (false, true) => self.hi,
            (false, false) => 0.0,
        }
    }

    /// Returns `true` if the exact rational lies inside the interval
    /// (decided exactly: finite endpoints are dyadic rationals).
    pub fn contains(&self, r: &Rational) -> bool {
        r.cmp_f64(self.lo) != Some(Ordering::Less) && r.cmp_f64(self.hi) != Some(Ordering::Greater)
    }

    /// Returns `true` if `v` lies inside the interval.
    pub fn contains_f64(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Where the exact rational `threshold` falls relative to the interval:
    /// `Less` if the whole interval is below it, `Greater` if the whole
    /// interval is above it, `None` if the threshold lands *inside* — the
    /// case where a `FloatFirst` caller must fall back to exact arithmetic.
    pub fn compare_threshold(&self, threshold: &Rational) -> Option<Ordering> {
        if threshold.cmp_f64(self.hi) == Some(Ordering::Greater) {
            Some(Ordering::Less)
        } else if threshold.cmp_f64(self.lo) == Some(Ordering::Less) {
            Some(Ordering::Greater)
        } else {
            None
        }
    }

    /// Certified sum: contains `x + y` for every `x ∈ self`, `y ∈ rhs`.
    pub fn add(&self, rhs: &ErrorInterval) -> ErrorInterval {
        ErrorInterval::new(down(self.lo + rhs.lo), up(self.hi + rhs.hi))
    }

    /// Certified product: contains `x · y` for every `x ∈ self`, `y ∈ rhs`.
    ///
    /// Non-negative operands with finite upper endpoints take the two
    /// products `lo·lo'` and `hi·hi'`, every other operand the four-product
    /// hull; both give the same bits (see the module docs; checked in debug
    /// builds).
    pub fn mul(&self, rhs: &ErrorInterval) -> ErrorInterval {
        if self.lo >= 0.0 && rhs.lo >= 0.0 && self.hi < f64::INFINITY && rhs.hi < f64::INFINITY {
            let product = ErrorInterval::new(down(self.lo * rhs.lo), up(self.hi * rhs.hi));
            debug_assert_eq!(product.bits(), self.mul_hull(rhs).bits());
            return product;
        }
        self.mul_hull(rhs)
    }

    /// The sign-general product: the outward hull of the four rounded
    /// endpoint products.
    fn mul_hull(&self, rhs: &ErrorInterval) -> ErrorInterval {
        let products = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        if products.iter().any(|p| p.is_nan()) {
            // 0 × ∞ after an overflow: no information either way.
            return ErrorInterval::new(f64::NEG_INFINITY, f64::INFINITY);
        }
        let mut lo = products[0];
        let mut hi = products[0];
        for &p in &products[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        ErrorInterval::new(down(lo), up(hi))
    }

    /// The endpoint bit patterns, for bit-for-bit comparisons.
    fn bits(&self) -> (u64, u64) {
        (self.lo.to_bits(), self.hi.to_bits())
    }

    /// Certified complement: contains `1 - x` for every `x ∈ self`.
    pub fn complement(&self) -> ErrorInterval {
        ErrorInterval::new(down(1.0 - self.hi), up(1.0 - self.lo))
    }

    /// The smallest interval containing both operands (set union hull).
    pub fn hull(&self, rhs: &ErrorInterval) -> ErrorInterval {
        ErrorInterval::new(self.lo.min(rhs.lo), self.hi.max(rhs.hi))
    }
}

impl fmt::Debug for ErrorInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ErrorInterval[{:e}, {:e}]", self.lo, self.hi)
    }
}

impl fmt::Display for ErrorInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let i = ErrorInterval::new(0.25, 0.5);
        assert_eq!(i.lo(), 0.25);
        assert_eq!(i.hi(), 0.5);
        assert_eq!(i.width(), 0.25);
        assert_eq!(i.midpoint(), 0.375);
        assert!(i.contains_f64(0.3));
        assert!(!i.contains_f64(0.51));
    }

    #[test]
    #[should_panic]
    fn inverted_interval_panics() {
        let _ = ErrorInterval::new(1.0, 0.0);
    }

    #[test]
    fn arithmetic_contains_exact_results() {
        let third = ErrorInterval::from_rational(&Rational::from_ratio_u64(1, 3));
        let seventh = ErrorInterval::from_rational(&Rational::from_ratio_u64(1, 7));
        let sum = third.add(&seventh);
        let exact_sum = Rational::from_ratio_u64(10, 21);
        assert!(sum.contains(&exact_sum));
        let product = third.mul(&seventh);
        assert!(product.contains(&Rational::from_ratio_u64(1, 21)));
        let complement = third.complement();
        assert!(complement.contains(&Rational::from_ratio_u64(2, 3)));
        // Widening is one ulp per op: the intervals stay very tight.
        assert!(sum.width() < 1e-15);
        assert!(product.width() < 1e-15);
    }

    #[test]
    fn mul_handles_signs() {
        let a = ErrorInterval::new(-2.0, 3.0);
        let b = ErrorInterval::new(-5.0, 4.0);
        let p = a.mul(&b);
        // Hull of {10, -8, -15, 12} widened outward.
        assert!(p.lo() <= -15.0 && p.hi() >= 12.0);
        assert!(p.contains(&Rational::from_ratio_i64(-15, 1)));
    }

    #[test]
    fn threshold_comparison() {
        let i = ErrorInterval::new(0.25, 0.5);
        assert_eq!(
            i.compare_threshold(&Rational::from_ratio_u64(3, 4)),
            Some(Ordering::Less)
        );
        assert_eq!(
            i.compare_threshold(&Rational::from_ratio_u64(1, 8)),
            Some(Ordering::Greater)
        );
        assert_eq!(i.compare_threshold(&Rational::from_ratio_u64(1, 3)), None);
        // Endpoints land "inside": exactness means no false certainty.
        assert_eq!(i.compare_threshold(&Rational::from_ratio_u64(1, 4)), None);
        assert_eq!(i.compare_threshold(&Rational::from_ratio_u64(1, 2)), None);
    }

    #[test]
    fn overflow_saturates_to_infinite_bounds() {
        let big = ErrorInterval::exact(f64::MAX);
        let sum = big.add(&big);
        assert_eq!(sum.hi(), f64::INFINITY);
        assert!(sum.lo().is_finite());
        let product = big.mul(&big);
        assert_eq!(product.hi(), f64::INFINITY);
        // An infinite bound still contains everything above its partner.
        let huge = &Rational::from_f64_dyadic(f64::MAX).unwrap()
            * &Rational::from_f64_dyadic(f64::MAX).unwrap();
        assert!(product.contains(&huge));
    }

    #[test]
    fn midpoint_of_overflowing_width_stays_inside() {
        for (lo, hi) in [(-f64::MAX, f64::MAX), (-1e308, 1.5e308)] {
            let i = ErrorInterval::new(lo, hi);
            assert!((i.hi() - i.lo()).is_infinite());
            assert!(i.contains_f64(i.midpoint()), "{} outside {i}", i.midpoint());
        }
        assert_eq!(ErrorInterval::new(-f64::MAX, f64::MAX).midpoint(), 0.0);
        assert_eq!(ErrorInterval::new(-1e308, 1.5e308).midpoint(), 0.25e308);
    }

    #[test]
    fn hull_unions() {
        let a = ErrorInterval::new(0.0, 0.25);
        let b = ErrorInterval::new(0.5, 1.0);
        let h = a.hull(&b);
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 1.0);
    }

    /// One interval endpoint: `±0`, a subnormal, a probability-sized value,
    /// an arbitrary finite float, a value near `f64::MAX` (whose products
    /// overflow to `inf`) or an infinity. With `nonneg` set only zeros keep
    /// their drawn sign, so `-0.0` reaches the non-negative path of `mul`.
    fn endpoint(kind: u8, bits: u64, negative: bool, nonneg: bool) -> f64 {
        let fraction = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let magnitude = match kind {
            0 => 0.0,
            1 => f64::from_bits(bits & ((1 << 52) - 1)),
            2 => fraction,
            3 => f64::from_bits(bits >> 1).min(f64::MAX),
            4 => f64::MAX * (0.5 + fraction / 2.0),
            _ => f64::INFINITY,
        };
        if negative && (!nonneg || magnitude == 0.0) {
            -magnitude
        } else {
            magnitude
        }
    }

    fn interval() -> impl Strategy<Value = ErrorInterval> {
        let end = (0u8..6, any::<u64>(), any::<bool>());
        (end.clone(), end, any::<bool>()).prop_map(|((ka, ba, na), (kb, bb, nb), nonneg)| {
            let a = endpoint(ka, ba, na, nonneg);
            let b = endpoint(kb, bb, nb, nonneg);
            ErrorInterval::new(a.min(b), a.max(b))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `mul` equals the four-product hull bit for bit on every operand
        /// (the non-negative path included), and contains every exact
        /// endpoint product when all endpoints are finite.
        #[test]
        fn mul_matches_four_product_hull_bit_for_bit(a in interval(), b in interval()) {
            let product = a.mul(&b);
            prop_assert_eq!(product.bits(), a.mul_hull(&b).bits(), "{} * {}", a, b);
            let ends = [a.lo(), a.hi(), b.lo(), b.hi()].map(Rational::from_f64_dyadic);
            if let [Some(alo), Some(ahi), Some(blo), Some(bhi)] = ends {
                for (x, y) in [(&alo, &blo), (&alo, &bhi), (&ahi, &blo), (&ahi, &bhi)] {
                    prop_assert!(product.contains(&(x * y)), "{} * {} -> {}", a, b, product);
                }
            }
        }

        /// The midpoint lies inside every interval with finite endpoints.
        #[test]
        fn midpoint_lies_inside_finite_intervals(i in interval()) {
            if i.lo().is_finite() && i.hi().is_finite() {
                prop_assert!(i.contains_f64(i.midpoint()), "{} outside {}", i.midpoint(), i);
            }
        }
    }
}
