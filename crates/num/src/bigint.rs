//! Arbitrary-precision signed integers, built as a sign + [`BigUint`] magnitude.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Sign of a [`BigInt`]. Zero always has sign [`Sign::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    magnitude: BigUint,
}

impl BigInt {
    /// The value 0.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            magnitude: BigUint::zero(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            magnitude: BigUint::one(),
        }
    }

    /// Builds from a sign and magnitude, normalizing zero.
    pub fn from_sign_magnitude(sign: Sign, magnitude: BigUint) -> Self {
        if magnitude.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "non-zero magnitude with Zero sign");
            BigInt { sign, magnitude }
        }
    }

    /// Builds from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                magnitude: BigUint::from_u64(v as u64),
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                magnitude: BigUint::from_u64(v.unsigned_abs()),
            },
        }
    }

    /// Builds a non-negative integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        BigInt::from_sign_magnitude(
            if v == 0 { Sign::Zero } else { Sign::Positive },
            BigUint::from_u64(v),
        )
    }

    /// Converts from an unsigned big integer.
    pub fn from_biguint(v: BigUint) -> Self {
        BigInt::from_sign_magnitude(
            if v.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            v,
        )
    }

    /// The sign of this integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The absolute value, as an unsigned big integer.
    pub fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// The sign and the magnitude, by value.
    pub(crate) fn into_parts(self) -> (Sign, BigUint) {
        (self.sign, self.magnitude)
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.magnitude.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m <= i64::MAX as u64 + 1 {
                    Some(-(m as i128) as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        match self.sign {
            Sign::Negative => -m,
            _ => m,
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.magnitude)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_i64(v)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.magnitude.cmp(&other.magnitude),
                Sign::Negative => other.magnitude.cmp(&self.magnitude),
            },
            ord => ord,
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        BigInt {
            sign,
            magnitude: self.magnitude,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                magnitude: &self.magnitude + &rhs.magnitude,
            },
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match self.magnitude.cmp(&rhs.magnitude) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => BigInt {
                        sign: self.sign,
                        magnitude: &self.magnitude - &rhs.magnitude,
                    },
                    Ordering::Less => BigInt {
                        sign: rhs.sign,
                        magnitude: &rhs.magnitude - &self.magnitude,
                    },
                }
            }
        }
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        &self + &rhs
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        &self - &rhs
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt {
            sign,
            magnitude: &self.magnitude * &rhs.magnitude,
        }
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        &self * &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_signs() {
        assert!(BigInt::zero().is_zero());
        assert_eq!(BigInt::from_i64(-5).sign(), Sign::Negative);
        assert_eq!(BigInt::from_i64(5).sign(), Sign::Positive);
        assert_eq!(BigInt::from_i64(0).sign(), Sign::Zero);
    }

    #[test]
    fn roundtrip_i64() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN + 1] {
            assert_eq!(BigInt::from_i64(v).to_i64(), Some(v));
        }
    }

    #[test]
    fn add_mixed_signs() {
        let a = BigInt::from_i64(100);
        let b = BigInt::from_i64(-30);
        assert_eq!((&a + &b).to_i64(), Some(70));
        assert_eq!((&b + &a).to_i64(), Some(70));
        assert_eq!((&(-a.clone()) + &b).to_i64(), Some(-130));
        assert_eq!((&a + &BigInt::from_i64(-100)).to_i64(), Some(0));
    }

    #[test]
    fn sub_and_neg() {
        let a = BigInt::from_i64(10);
        let b = BigInt::from_i64(25);
        assert_eq!((&a - &b).to_i64(), Some(-15));
        assert_eq!((-BigInt::from_i64(-7)).to_i64(), Some(7));
        assert_eq!((-BigInt::zero()).to_i64(), Some(0));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(
            (&BigInt::from_i64(-6) * &BigInt::from_i64(7)).to_i64(),
            Some(-42)
        );
        assert_eq!(
            (&BigInt::from_i64(-6) * &BigInt::from_i64(-7)).to_i64(),
            Some(42)
        );
        assert_eq!(
            (&BigInt::from_i64(0) * &BigInt::from_i64(-7)).to_i64(),
            Some(0)
        );
    }

    #[test]
    fn ordering() {
        let vals = [-100i64, -1, 0, 1, 100];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    BigInt::from_i64(a).cmp(&BigInt::from_i64(b)),
                    a.cmp(&b),
                    "{} vs {}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(BigInt::from_i64(-12345).to_string(), "-12345");
        assert_eq!(BigInt::from_i64(0).to_string(), "0");
        assert_eq!(BigInt::from_i64(99).to_string(), "99");
    }
}
