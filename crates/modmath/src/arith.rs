//! Primitive modular operations on `u64` operands.
//!
//! All functions assume a modulus `m > 1` and operands already reduced
//! into `[0, m)`. Intermediates use `u128`, so any `u64` modulus is safe.
//!
//! This is the naive reference arithmetic: a multiplication is one `u128`
//! product and one `u128 %`. Protocol code goes through
//! [`crate::field::PrimeField`] and [`crate::multiexp`], whose Montgomery
//! ladders and addition chains are the fast path; their tests compare
//! against the functions here, multi-base products against
//! [`product_of_powers`]. Moduli that are not prime, such as the even
//! modulus of `pow_mod`'s example, use this module directly.
//!
//! Every multiplication and inversion is recorded in the thread-local
//! [`crate::ops`] counters; this instrumentation is how the reproduction
//! measures the computational-cost row of the paper's Table 1.

use crate::ops;

/// Adds `a` and `b` modulo `m`.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::add_mod(5, 6, 7), 4);
/// ```
#[inline]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m);
    ops::record_add();
    let s = a as u128 + b as u128;
    let m128 = m as u128;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "in range: the conditional subtraction leaves a value `< m <= u64::MAX`"
    )]
    {
        (if s >= m128 { s - m128 } else { s }) as u64
    }
}

/// Subtracts `b` from `a` modulo `m`.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::sub_mod(2, 5, 7), 4);
/// ```
#[inline]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m);
    ops::record_add();
    if a >= b {
        a - b
    } else {
        m - (b - a)
    }
}

/// Multiplies `a` and `b` modulo `m` using a `u128` intermediate.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::mul_mod(3, 5, 7), 1);
/// ```
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m);
    ops::record_mul();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "in range: the residue of `% m` is `< m <= u64::MAX`"
    )]
    {
        ((a as u128 * b as u128) % m as u128) as u64
    }
}

/// Raises `base` to `exp` modulo `m` by right-to-left binary decomposition
/// (Knuth vol. 2, the algorithm the paper cites for its cost analysis).
///
/// The `Θ(log exp)` squarings and multiplications performed internally are
/// individually recorded in the operation counters, so the `log p` factor of
/// the paper's `O(mn² log p)` bound shows up in measurements.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::pow_mod(2, 10, 1000), 24);
/// ```
pub fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(base < m);
    ops::record_pow();
    if m == 1 {
        return 0;
    }
    let mut result: u64 = 1;
    let mut acc = base;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_mod(result, acc, m);
        }
        exp >>= 1;
        if exp > 0 {
            acc = mul_mod(acc, acc, m);
        }
    }
    result
}

/// Computes `Π_i bases[i]^{exps[i]}` modulo `m`, one [`pow_mod`] per
/// base: the naive reference every multi-base product is tested against.
/// A base vector shorter than `exps` uses a prefix of the exponents.
pub fn product_of_powers(bases: &[u64], exps: &[u64], m: u64) -> u64 {
    bases.iter().zip(exps).fold(1, |acc, (&base, &exp)| {
        mul_mod(acc, pow_mod(base, exp, m), m)
    })
}

/// Computes the greatest common divisor of `a` and `b`.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::gcd(12, 18), 6);
/// ```
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Computes the multiplicative inverse of `a` modulo `m` via the extended
/// Euclidean algorithm, or `None` when `gcd(a, m) ≠ 1`.
///
/// The paper's cost model treats an inversion as one multiplication
/// (Section 2.4); the counters record it under a dedicated `inv` column so
/// either convention can be applied when post-processing measurements.
///
/// # Example
/// ```
/// assert_eq!(dmw_modmath::arith::inv_mod(3, 7), Some(5));
/// assert_eq!(dmw_modmath::arith::inv_mod(0, 7), None);
/// ```
pub fn inv_mod(a: u64, m: u64) -> Option<u64> {
    debug_assert!(a < m);
    if a == 0 {
        return None;
    }
    ops::record_inv();
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quotient = old_r / r;
        let tmp_r = old_r - quotient * r;
        old_r = r;
        r = tmp_r;
        let tmp_s = old_s - quotient * s;
        old_s = s;
        s = tmp_s;
    }
    if old_r != 1 {
        return None;
    }
    let m128 = m as i128;
    let inv = ((old_s % m128) + m128) % m128;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "in range: `inv` lies in `[0, m)` and `m` fits in u64"
    )]
    Some(inv as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P: u64 = 0x7FFF_FFFF_FFFF_FFE7; // largest 63-bit prime

    #[test]
    fn add_wraps_at_modulus() {
        assert_eq!(add_mod(P - 1, P - 1, P), P - 2);
        assert_eq!(add_mod(0, 0, P), 0);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(sub_mod(0, 1, 7), 6);
        assert_eq!(sub_mod(3, 3, 7), 0);
    }

    #[test]
    fn mul_handles_large_operands() {
        // (p-1)^2 mod p == 1
        assert_eq!(mul_mod(P - 1, P - 1, P), 1);
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(0, 5, 7), 0);
        assert_eq!(pow_mod(0, 0, 7), 1, "0^0 == 1 by convention");
        assert_eq!(pow_mod(3, 1, 7), 3);
        assert_eq!(pow_mod(2, 62, P), 1 << 62);
    }

    #[test]
    fn pow_matches_fermat() {
        // a^(p-1) == 1 (mod p) for prime p, a != 0.
        for a in [2u64, 3, 12345, P - 2] {
            assert_eq!(pow_mod(a, P - 1, P), 1);
        }
    }

    #[test]
    fn inv_of_zero_is_none() {
        assert_eq!(inv_mod(0, 7), None);
    }

    #[test]
    fn inv_requires_coprimality() {
        assert_eq!(inv_mod(6, 9), None);
        assert_eq!(inv_mod(3, 9), None);
        assert_eq!(inv_mod(2, 9), Some(5));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(P, P), P);
    }

    proptest! {
        #[test]
        fn mul_commutes(a in 0..P, b in 0..P) {
            prop_assert_eq!(mul_mod(a, b, P), mul_mod(b, a, P));
        }

        #[test]
        fn mul_associates(a in 0..P, b in 0..P, c in 0..P) {
            prop_assert_eq!(
                mul_mod(mul_mod(a, b, P), c, P),
                mul_mod(a, mul_mod(b, c, P), P)
            );
        }

        #[test]
        fn add_mul_distribute(a in 0..P, b in 0..P, c in 0..P) {
            prop_assert_eq!(
                mul_mod(a, add_mod(b, c, P), P),
                add_mod(mul_mod(a, b, P), mul_mod(a, c, P), P)
            );
        }

        #[test]
        fn inverse_round_trips(a in 1..P) {
            let inv = inv_mod(a, P).expect("nonzero element of prime field");
            prop_assert_eq!(mul_mod(a, inv, P), 1);
        }

        #[test]
        fn pow_adds_exponents(a in 1..P, e1 in 0u64..1000, e2 in 0u64..1000) {
            prop_assert_eq!(
                mul_mod(pow_mod(a, e1, P), pow_mod(a, e2, P), P),
                pow_mod(a, e1 + e2, P)
            );
        }

        #[test]
        fn sub_inverts_add(a in 0..P, b in 0..P) {
            prop_assert_eq!(sub_mod(add_mod(a, b, P), b, P), a);
        }
    }
}
