//! Exact arbitrary-precision arithmetic for the `treelineage` workspace.
//!
//! The paper's tractability results are stated in "ra-linear" time: linear
//! time up to the (polynomial) cost of arithmetic operations on exact rational
//! numbers (Theorem 3.2). This crate provides the number types used by
//! probability evaluation, weighted model counting and match counting:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (model counts can be
//!   as large as `2^{|I|}`),
//! * [`BigInt`] — signed integers,
//! * [`Rational`] — exact rationals in lowest terms (probabilities are given
//!   as numerator/denominator pairs, footnote 1 of the paper),
//! * [`ErrorInterval`] — certified `f64` enclosures of exact values, the
//!   arithmetic behind the engine's float fast-path with exact fallback;
//! * [`limbs`] — fixed-width two's-complement integers on `u64` limb slots
//!   and the [`limbs::IntWeights`] literal tables, the arithmetic of the
//!   allocation-free fraction-free exact pass.
//!
//! The implementation is deliberately simple (schoolbook multiplication,
//! binary long division): the experiments run on instances of a few thousand
//! facts, where these routines are nowhere near the bottleneck, and keeping
//! the crate dependency-free makes the workspace self-contained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod interval;
pub mod limbs;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use interval::ErrorInterval;
pub use rational::Rational;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn biguint_add_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let sum = &BigUint::from_u64(a) + &BigUint::from_u64(b);
            prop_assert_eq!(sum.to_u128(), Some(a as u128 + b as u128));
        }

        #[test]
        fn biguint_mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let prod = &BigUint::from_u64(a) * &BigUint::from_u64(b);
            prop_assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
        }

        #[test]
        fn biguint_div_rem_invariant(a in 0u128..u128::MAX, b in 1u64..u64::MAX) {
            let a_big = BigUint::from_u128(a);
            let b_big = BigUint::from_u64(b);
            let (q, r) = a_big.div_rem(&b_big);
            prop_assert!(r < b_big);
            prop_assert_eq!(&(&q * &b_big) + &r, a_big);
        }

        #[test]
        fn biguint_decimal_roundtrip(a in 0u128..u128::MAX) {
            let v = BigUint::from_u128(a);
            let s = v.to_decimal_string();
            prop_assert_eq!(BigUint::from_decimal_str(&s), Some(v));
            prop_assert_eq!(s, a.to_string());
        }

        #[test]
        fn bigint_add_sub_matches_i128(a in i64::MIN/2..i64::MAX/2, b in i64::MIN/2..i64::MAX/2) {
            let x = BigInt::from_i64(a);
            let y = BigInt::from_i64(b);
            prop_assert_eq!((&x + &y).to_i64(), Some(a + b));
            prop_assert_eq!((&x - &y).to_i64(), Some(a - b));
        }

        #[test]
        fn rational_field_axioms(an in -1000i64..1000, ad in 1u64..1000,
                                 bn in -1000i64..1000, bd in 1u64..1000,
                                 cn in -1000i64..1000, cd in 1u64..1000) {
            let a = Rational::from_ratio_i64(an, ad);
            let b = Rational::from_ratio_i64(bn, bd);
            let c = Rational::from_ratio_i64(cn, cd);
            // Commutativity and associativity.
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&a * &b, &b * &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
            // Distributivity.
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            // Additive inverse.
            prop_assert!((&a - &a).is_zero());
        }

        #[test]
        fn rational_div_inverts_mul(an in -1000i64..1000, ad in 1u64..1000,
                                    bn in 1i64..1000, bd in 1u64..1000) {
            let a = Rational::from_ratio_i64(an, ad);
            let b = Rational::from_ratio_i64(bn, bd);
            prop_assert_eq!(&(&a * &b) / &b, a);
        }

        #[test]
        fn rational_cmp_matches_f64(an in -1000i64..1000, ad in 1u64..1000,
                                    bn in -1000i64..1000, bd in 1u64..1000) {
            let a = Rational::from_ratio_i64(an, ad);
            let b = Rational::from_ratio_i64(bn, bd);
            let fa = an as f64 / ad as f64;
            let fb = bn as f64 / bd as f64;
            if (fa - fb).abs() > 1e-9 {
                prop_assert_eq!(a < b, fa < fb);
            }
        }

        /// `to_f64_bounds` is a *certified and optimal* enclosure on
        /// arbitrary small rationals: `lo <= r <= hi` exactly, with `hi` at
        /// most one ulp above `lo`, and `to_f64` inside the bounds.
        #[test]
        fn to_f64_bounds_enclose_small_rationals(n in -100_000i64..100_000, d in 1u64..100_000) {
            let r = Rational::from_ratio_i64(n, d);
            let (lo, hi) = r.to_f64_bounds();
            prop_assert!(Rational::from_f64_dyadic(lo).unwrap() <= r);
            prop_assert!(r <= Rational::from_f64_dyadic(hi).unwrap());
            prop_assert!(hi == lo || hi == lo.next_up());
            let approx = r.to_f64();
            prop_assert!(lo <= approx && approx <= hi);
        }

        /// The shift-based large-magnitude path of `to_f64`, audited near
        /// the `f64` boundaries: rationals built as `(2^a + x) / (2^b + y)`
        /// with bit sizes straddling the old 900-bit threshold and the
        /// overflow/subnormal range must come back within one ulp-pair and
        /// *ordered consistently* with exact rational comparison.
        #[test]
        fn to_f64_bounds_enclose_huge_rationals(
            a in 0usize..1200, b in 0usize..1200,
            x in 0u64..u64::MAX, y in 0u64..u64::MAX,
            negate in 0u8..2,
        ) {
            let n = &BigUint::pow2(a) + &BigUint::from_u64(x);
            let d = &BigUint::pow2(b) + &BigUint::from_u64(y);
            let mut r = Rational::new(BigInt::from_biguint(n), d);
            if negate == 1 {
                r = -r;
            }
            let (lo, hi) = r.to_f64_bounds();
            // Exact containment, even past f64::MAX (saturating bound) and
            // below the subnormal range.
            if lo.is_finite() {
                prop_assert!(Rational::from_f64_dyadic(lo).unwrap() <= r);
            }
            if hi.is_finite() {
                prop_assert!(r <= Rational::from_f64_dyadic(hi).unwrap());
            }
            prop_assert!(lo <= hi);
            // Optimality: the bounds are adjacent floats (or equal, or a
            // saturating MAX/inf pair at the range boundary).
            prop_assert!(
                hi == lo || hi == lo.next_up(),
                "bounds not adjacent: {} vs {}", lo, hi
            );
            let approx = r.to_f64();
            prop_assert!(!approx.is_nan());
            prop_assert!(lo <= approx && approx <= hi, "to_f64 {} outside [{}, {}]", approx, lo, hi);
        }

        /// Ordering consistency across the boundary-heavy generator: if the
        /// certified enclosures of two rationals are disjoint, their exact
        /// order matches the float order.
        #[test]
        fn to_f64_bounds_order_consistently(
            a in 800usize..1100, b in 0usize..300,
            x in 0u64..u64::MAX, y in 1u64..u64::MAX,
        ) {
            let r1 = Rational::new(
                BigInt::from_biguint(&BigUint::pow2(a) + &BigUint::from_u64(x)),
                BigUint::from_u64(y),
            );
            let r2 = Rational::new(
                BigInt::from_biguint(&BigUint::pow2(a) + &BigUint::from_u64(y)),
                &BigUint::pow2(b) + &BigUint::from_u64(x),
            );
            let (lo1, hi1) = r1.to_f64_bounds();
            let (lo2, hi2) = r2.to_f64_bounds();
            if hi1 < lo2 {
                prop_assert!(r1 < r2);
            }
            if hi2 < lo1 {
                prop_assert!(r2 < r1);
            }
        }
    }
}
