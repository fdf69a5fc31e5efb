//! Arbitrary-precision unsigned integers.
//!
//! Probability evaluation in the paper is "ra-linear": linear time up to the
//! cost of arithmetic on exact rational numbers (footnote 1 of the paper).
//! Exact rationals require unbounded integers — possible-world counts are
//! `2^{|I|}` — so we provide a small, dependency-free big-integer
//! implementation. Limbs are base-`2^32` stored little-endian in a `Vec<u32>`;
//! multiplication is schoolbook; division is short division by a one-limb
//! divisor and binary (bit-at-a-time) long division by a multi-limb one;
//! gcd is Stein's binary algorithm in place. The served exact passes do not
//! run on this type (they evaluate in fixed-width limb slots, see
//! [`crate::limbs`]) and reduce once per answer.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};

const BASE_BITS: u32 = 32;

/// An arbitrary-precision unsigned integer.
///
/// The internal representation is a little-endian vector of 32-bit limbs with
/// no trailing zero limbs; zero is represented by an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if this integer is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Builds a big integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut out = BigUint {
            limbs: vec![(v & 0xFFFF_FFFF) as u32, (v >> 32) as u32],
        };
        out.normalize();
        out
    }

    /// Builds a big integer from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = Vec::with_capacity(4);
        let mut v = v;
        while v != 0 {
            limbs.push((v & 0xFFFF_FFFF) as u32);
            v >>= 32;
        }
        BigUint { limbs }
    }

    /// Converts to `u64` if the value fits, `None` otherwise.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits, `None` otherwise.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut out: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            out |= (l as u128) << (32 * i);
        }
        Some(out)
    }

    /// Approximate conversion to `f64` (may lose precision, may be infinite).
    pub fn to_f64(&self) -> f64 {
        let mut out = 0.0f64;
        for &l in self.limbs.iter().rev() {
            out = out * 4294967296.0 + l as f64;
        }
        out
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// `2^exp`.
    pub fn pow2(exp: usize) -> Self {
        let mut limbs = vec![0u32; exp / 32 + 1];
        limbs[exp / 32] = 1 << (exp % 32);
        BigUint { limbs }
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> Self {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// Number of trailing zero bits (0 for the value 0).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &limb) in self.limbs.iter().enumerate() {
            if limb != 0 {
                return i * 32 + limb.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Greatest common divisor (Stein's binary algorithm: shifts and
    /// subtractions only), run in place on two owned limb buffers, so the
    /// loop allocates nothing. Every `Rational` operation reduces through
    /// this. The served exact passes are fraction-free and reduce once per
    /// answer, but the `Rational` passes (the sequential oracle, non-smooth
    /// circuits) reduce at every gate, on numerators of thousands of bits,
    /// where binary gcd's O(bits) cheap iterations beat Euclid's O(bits)
    /// *long divisions* by orders of magnitude.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let az = self.trailing_zeros();
        let bz = other.trailing_zeros();
        let mut a = self.clone();
        let mut b = other.clone();
        a.shr_assign_bits(az);
        b.shr_assign_bits(bz);
        // Invariant: a and b odd; each round strips at least one bit off b.
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Greater => std::mem::swap(&mut a, &mut b),
                Ordering::Less => {}
            }
            b.sub_assign_smaller(&a);
            let tz = b.trailing_zeros();
            b.shr_assign_bits(tz);
        }
        match az.min(bz) {
            0 => a,
            shift => &a << shift,
        }
    }

    /// `self ← self >> shift`, in place.
    pub(crate) fn shr_assign_bits(&mut self, shift: usize) {
        let (limb_shift, bit_shift) = (shift / 32, shift % 32);
        if limb_shift >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        self.limbs.drain(..limb_shift);
        if bit_shift > 0 {
            for i in 0..self.limbs.len() {
                let high = self.limbs.get(i + 1).map_or(0, |&l| l << (32 - bit_shift));
                self.limbs[i] = (self.limbs[i] >> bit_shift) | high;
            }
        }
        self.normalize();
    }

    /// `self ← self - rhs` in place, for `rhs <= self`.
    fn sub_assign_smaller(&mut self, rhs: &BigUint) {
        let mut borrow = false;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            if i >= rhs.limbs.len() && !borrow {
                break;
            }
            let (d, b1) = limb.overflowing_sub(r);
            let (d, b2) = d.overflowing_sub(u32::from(borrow));
            *limb = d;
            borrow = b1 | b2;
        }
        debug_assert!(!borrow, "BigUint subtraction underflow");
        self.normalize();
    }

    /// The base-`2^32` limbs, little-endian.
    pub(crate) fn limbs32(&self) -> &[u32] {
        &self.limbs
    }

    /// The integer of little-endian `u64` limbs.
    pub(crate) fn from_u64_limbs(limbs: impl ExactSizeIterator<Item = u64>) -> Self {
        let mut out = Vec::with_capacity(2 * limbs.len());
        for limb in limbs {
            out.push(limb as u32);
            out.push((limb >> 32) as u32);
        }
        let mut out = BigUint { limbs: out };
        out.normalize();
        out
    }

    /// Quotient and remainder of Euclidean division. Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_small(divisor.limbs[0]);
            return (q, BigUint::from_u64(r as u64));
        }
        // Binary long division, in place: divisor has >= 2 limbs so the
        // loop count is the bit-length of the dividend.
        let mut quotient = BigUint {
            limbs: vec![0; self.limbs.len()],
        };
        let mut remainder = BigUint {
            limbs: Vec::with_capacity(divisor.limbs.len() + 1),
        };
        for i in (0..self.bits()).rev() {
            remainder.shl1_with(self.bit(i));
            if remainder >= *divisor {
                remainder.sub_assign_smaller(divisor);
                quotient.set_bit_at(i);
            }
        }
        quotient.normalize();
        (quotient, remainder)
    }

    /// `self ← 2·self + bit`, in place.
    fn shl1_with(&mut self, bit: bool) {
        let mut carry = u32::from(bit);
        for limb in &mut self.limbs {
            (*limb, carry) = ((*limb << 1) | carry, *limb >> 31);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    fn div_rem_small(&self, d: u32) -> (BigUint, u32) {
        let mut rem: u64 = 0;
        let mut q = vec![0u32; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            q[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        let mut out = BigUint { limbs: q };
        out.normalize();
        (out, rem as u32)
    }

    fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 32)) & 1 == 1
    }

    fn set_bit_at(&mut self, i: usize) {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 32);
    }

    /// Parses a decimal string. Returns `None` on invalid input.
    pub fn from_decimal_str(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut out = BigUint::zero();
        let ten = BigUint::from_u64(10);
        for c in s.chars() {
            let d = c.to_digit(10)?;
            out = &out * &ten + BigUint::from_u64(d as u64);
        }
        Some(out)
    }

    /// Decimal string representation.
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(10);
            digits.push(char::from_digit(r, 10).unwrap());
            cur = q;
        }
        digits.iter().rev().collect()
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry: u64 = 0;
        for i in 0..long.limbs.len() {
            let s = long.limbs[i] as u64 + short.limbs.get(i).copied().unwrap_or(0) as u64 + carry;
            limbs.push((s & 0xFFFF_FFFF) as u32);
            carry = s >> BASE_BITS;
        }
        if carry > 0 {
            limbs.push(carry as u32);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl Add<BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        self + &rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// Panics if `rhs > self` (unsigned subtraction).
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i64 - rhs.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                limbs.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                limbs.push(d as u32);
                borrow = 0;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u32; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u64 + a as u64 * b as u64 + carry;
                limbs[i + j] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> BASE_BITS;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = limbs[k] as u64 + carry;
                limbs[k] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> BASE_BITS;
                k += 1;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = shift / 32;
        let bit_shift = shift % 32;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        let limb_shift = shift / 32;
        let bit_shift = shift % 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut v = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    v |= self.limbs[i + 1] << (32 - bit_shift);
                }
                limbs.push(v);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().to_u64(), Some(0));
        assert_eq!(BigUint::one().to_u64(), Some(1));
    }

    #[test]
    fn roundtrip_u64() {
        for v in [0u64, 1, 42, u32::MAX as u64, u64::MAX, 1 << 33] {
            assert_eq!(BigUint::from_u64(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn roundtrip_u128() {
        let v = 123456789012345678901234567890u128;
        assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
    }

    #[test]
    fn add_sub_small() {
        let a = BigUint::from_u64(12345);
        let b = BigUint::from_u64(67890);
        assert_eq!((&a + &b).to_u64(), Some(80235));
        assert_eq!((&b - &a).to_u64(), Some(55545));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let c = &a + &b;
        assert_eq!(c.to_u128(), Some(u64::MAX as u128 + 1));
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from_u64(2);
    }

    #[test]
    fn mul_small() {
        let a = BigUint::from_u64(123456);
        let b = BigUint::from_u64(789012);
        assert_eq!((&a * &b).to_u64(), Some(123456 * 789012));
    }

    #[test]
    fn mul_large() {
        let a = BigUint::from_u128(u128::MAX / 3);
        let b = BigUint::from_u64(3);
        let c = &a * &b;
        assert_eq!(c.to_u128(), Some((u128::MAX / 3) * 3));
    }

    #[test]
    fn pow2_and_bits() {
        assert_eq!(BigUint::pow2(0).to_u64(), Some(1));
        assert_eq!(BigUint::pow2(10).to_u64(), Some(1024));
        assert_eq!(BigUint::pow2(100).bits(), 101);
    }

    #[test]
    fn pow_matches_u128() {
        let a = BigUint::from_u64(7);
        assert_eq!(a.pow(20).to_u128(), Some(7u128.pow(20)));
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = BigUint::from_u128(123456789012345678901234567890u128);
        let b = BigUint::from_u64(97);
        let (q, r) = a.div_rem(&b);
        let expected_q = 123456789012345678901234567890u128 / 97;
        let expected_r = 123456789012345678901234567890u128 % 97;
        assert_eq!(q.to_u128(), Some(expected_q));
        assert_eq!(r.to_u128(), Some(expected_r));
    }

    #[test]
    fn div_rem_large_divisor() {
        let a = BigUint::from_u128(340282366920938463463374607431768211455u128);
        let b = BigUint::from_u128(18446744073709551629u128);
        let (q, r) = a.div_rem(&b);
        assert_eq!(
            (&(&q * &b) + &r).to_u128(),
            Some(340282366920938463463374607431768211455u128)
        );
        assert!(r < b);
    }

    #[test]
    fn gcd_small() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b).to_u64(), Some(12));
        assert_eq!(BigUint::zero().gcd(&a).to_u64(), Some(48));
        assert_eq!(a.gcd(&BigUint::zero()).to_u64(), Some(48));
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "98765432109876543210987654321098765432109876543210";
        let v = BigUint::from_decimal_str(s).unwrap();
        assert_eq!(v.to_decimal_string(), s);
        assert_eq!(BigUint::zero().to_decimal_string(), "0");
        assert!(BigUint::from_decimal_str("12a").is_none());
        assert!(BigUint::from_decimal_str("").is_none());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(0b1011);
        assert_eq!((&a << 3).to_u64(), Some(0b1011000));
        assert_eq!((&a >> 2).to_u64(), Some(0b10));
        assert_eq!((&BigUint::from_u64(1) << 100).bits(), 101);
        assert_eq!((&(&BigUint::from_u64(1) << 100) >> 100).to_u64(), Some(1));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(100);
        let b = BigUint::from_u64(200);
        let c = BigUint::from_u128(1u128 << 70);
        assert!(a < b);
        assert!(b < c);
        assert!(c > a);
        assert_eq!(a.cmp(&BigUint::from_u64(100)), Ordering::Equal);
    }

    #[test]
    fn to_f64_approx() {
        let v = BigUint::from_u64(1 << 40);
        assert!((v.to_f64() - (1u64 << 40) as f64).abs() < 1.0);
    }
}
