//! Differential tests: `BigUint` / `BigInt` / `Rational` arithmetic checked
//! against native `u128` / `i128` oracles on randomized small inputs.
//!
//! The in-tree bignum is the arithmetic substrate of every probability and
//! counting result in the workspace, so each operation is cross-checked
//! against machine integers on inputs small enough for the oracle to be
//! exact (`u64` operands, so products and sums fit in `u128`).

use proptest::prelude::*;
use treelineage_num::{BigInt, BigUint, Rational};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ----- BigUint vs u128 -----

    #[test]
    fn biguint_add_sub_matches_u128(a in 0u128..1 << 100, b in 0u128..1 << 100) {
        let (x, y) = (BigUint::from_u128(a), BigUint::from_u128(b));
        prop_assert_eq!((&x + &y).to_u128(), Some(a + b));
        let (hi, lo) = if a >= b { (x, y) } else { (y, x) };
        prop_assert_eq!((&hi - &lo).to_u128(), Some(a.abs_diff(b)));
    }

    #[test]
    fn biguint_mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let prod = &BigUint::from_u64(a) * &BigUint::from_u64(b);
        prop_assert_eq!(prod.to_u128(), Some(u128::from(a) * u128::from(b)));
    }

    #[test]
    fn biguint_div_rem_matches_u128(a in 0u128..u128::MAX, b in 1u128..1 << 80) {
        let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn biguint_cmp_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        let (x, y) = (BigUint::from_u128(a), BigUint::from_u128(b));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(x == y, a == b);
    }

    #[test]
    fn biguint_decimal_string_matches_u128(a in 0u128..u128::MAX) {
        let v = BigUint::from_u128(a);
        prop_assert_eq!(v.to_decimal_string(), a.to_string());
        prop_assert_eq!(BigUint::from_decimal_str(&a.to_string()), Some(v));
    }

    #[test]
    fn biguint_gcd_matches_euclid_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        fn gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let g = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
        prop_assert_eq!(g.to_u128(), Some(gcd(u128::from(a), u128::from(b))));
    }

    #[test]
    fn biguint_gcd_multi_limb_with_known_factor(a in 1u64..u64::MAX, b in 1u64..u64::MAX, shift in 0usize..100) {
        // gcd(a·g, b·g) for a coprime pair (a, b) equals g exactly; build g
        // as an arbitrary-precision number so the binary gcd runs on
        // multi-limb inputs.
        fn gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let r = gcd(u128::from(a), u128::from(b)) as u64;
        let (a, b) = (a / r, b / r); // now coprime
        let g = &(&BigUint::from_u64(a) * &BigUint::from_u64(b)) * &BigUint::pow2(shift);
        let x = &BigUint::from_u64(a) * &g;
        let y = &BigUint::from_u64(b) * &g;
        prop_assert_eq!(x.gcd(&y), g);
    }

    #[test]
    fn biguint_gcd_matches_euclid_u128_on_multi_limb_inputs(
        a in 0u128..u128::MAX,
        b in 0u128..u128::MAX,
        twos in 0u32..64,
    ) {
        fn gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        // Shared powers of two too, so Stein's shift-out runs across limbs.
        let (a, b) = ((a >> twos) << twos, (b >> twos) << twos);
        let g = BigUint::from_u128(a).gcd(&BigUint::from_u128(b));
        prop_assert_eq!(g.to_u128(), Some(gcd(a, b)));
    }

    #[test]
    fn rational_new_cancels_large_dyadic_and_multi_limb_odd_factors(
        n in -(1i64 << 40)..1 << 40,
        d in 1u64..1 << 40,
        odd in 0u128..u128::MAX >> 1,
        twos in 0usize..300,
    ) {
        // g = 2^twos · (2·odd + 1): a large power-of-two part (a
        // multi-limb dyadic gcd) and a multi-limb odd part.
        let g = &BigUint::pow2(twos) * &BigUint::from_u128(2 * odd + 1);
        let scaled = Rational::new(
            &BigInt::from_i64(n) * &BigInt::from_biguint(g.clone()),
            &BigUint::from_u64(d) * &g,
        );
        prop_assert_eq!(scaled, Rational::from_ratio_i64(n, d));
    }

    #[test]
    fn biguint_trailing_zeros_matches_u128(a in 1u128..u128::MAX, shift in 0usize..200) {
        let v = &BigUint::from_u128(a) * &BigUint::pow2(shift);
        prop_assert_eq!(v.trailing_zeros(), a.trailing_zeros() as usize + shift);
        prop_assert_eq!(BigUint::zero().trailing_zeros(), 0);
    }

    #[test]
    fn biguint_pow_matches_u128(base in 0u64..1 << 16, exp in 0u32..8) {
        let p = BigUint::from_u64(base).pow(exp);
        prop_assert_eq!(p.to_u128(), Some(u128::from(base).pow(exp)));
    }

    // ----- BigInt vs i128 -----

    #[test]
    fn bigint_ring_ops_match_i128(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        let (a, b) = (i128::from(a), i128::from(b));
        prop_assert_eq!(format!("{}", &x + &y), (a + b).to_string());
        prop_assert_eq!(format!("{}", &x - &y), (a - b).to_string());
        prop_assert_eq!(format!("{}", &x * &y), (a * b).to_string());
    }

    #[test]
    fn bigint_cmp_matches_i128(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(x.is_negative(), a < 0);
    }

    #[test]
    fn bigint_display_matches_i128(a in i64::MIN..i64::MAX) {
        prop_assert_eq!(BigInt::from_i64(a).to_string(), a.to_string());
    }

    // ----- Rational vs exact i128 fraction arithmetic -----
    // Operands are kept below 2^20 so that cross-multiplied oracles
    // (numerators up to n1*d2 + n2*d1, denominators up to d1*d2*d3) stay
    // far inside i128.

    #[test]
    fn rational_add_mul_match_cross_multiplication(
        n1 in -(1i64 << 20)..1 << 20, d1 in 1u64..1 << 20,
        n2 in -(1i64 << 20)..1 << 20, d2 in 1u64..1 << 20,
    ) {
        let a = Rational::from_ratio_i64(n1, d1);
        let b = Rational::from_ratio_i64(n2, d2);
        // a + b == (n1*d2 + n2*d1) / (d1*d2), exactly.
        let sum_n = n1 * d2 as i64 + n2 * d1 as i64;
        let sum_d = d1 * d2;
        prop_assert_eq!(&a + &b, Rational::from_ratio_i64(sum_n, sum_d));
        // a * b == (n1*n2) / (d1*d2), exactly.
        prop_assert_eq!(&a * &b, Rational::from_ratio_i64(n1 * n2, sum_d));
    }

    #[test]
    fn rational_div_matches_cross_multiplication(
        n1 in -(1i64 << 20)..1 << 20, d1 in 1u64..1 << 20,
        n2 in 1i64..1 << 20, d2 in 1u64..1 << 20,
    ) {
        let a = Rational::from_ratio_i64(n1, d1);
        let b = Rational::from_ratio_i64(n2, d2);
        // a / b == (n1*d2) / (d1*n2) for positive b, exactly.
        let q = Rational::from_ratio_i64(n1 * d2 as i64, d1 * n2 as u64);
        prop_assert_eq!(&a / &b, q);
    }

    #[test]
    fn rational_cmp_matches_cross_multiplication(
        n1 in -(1i64 << 20)..1 << 20, d1 in 1u64..1 << 20,
        n2 in -(1i64 << 20)..1 << 20, d2 in 1u64..1 << 20,
    ) {
        let a = Rational::from_ratio_i64(n1, d1);
        let b = Rational::from_ratio_i64(n2, d2);
        // n1/d1 <=> n2/d2 iff n1*d2 <=> n2*d1 (denominators positive).
        let lhs = i128::from(n1) * i128::from(d2);
        let rhs = i128::from(n2) * i128::from(d1);
        prop_assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
        prop_assert_eq!(a == b, lhs == rhs);
    }

    #[test]
    fn rational_is_in_lowest_terms(n in -(1i64 << 20)..1 << 20, d in 1u64..1 << 20) {
        let r = Rational::from_ratio_i64(n, d);
        let g = r.numerator().magnitude().gcd(r.denominator());
        prop_assert!(g.is_one() || r.is_zero());
        if r.is_zero() {
            prop_assert!(r.denominator().is_one());
        }
    }
}
