//! [`PrimeField`]: a runtime-modulus prime field `Z_p`.
//!
//! Protocol code manipulates two fields: `Z_q` (exponents, polynomial
//! coefficients, shares) and the order-`q` subgroup of `Z_p*` (commitments
//! and published values). `PrimeField` gives both a validated, ergonomic
//! surface over [`crate::arith`]. Elements are plain `u64` values already
//! reduced into `[0, p)`; the newtype lives at the field level rather than
//! the element level so that values can flow through messages and
//! serialization without carrying the modulus along.

use crate::arith;
use crate::error::ModMathError;
use crate::prime::is_prime;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A prime field `Z_p` with a runtime modulus.
///
/// # Example
/// ```
/// use dmw_modmath::PrimeField;
///
/// let f = PrimeField::new(7)?;
/// assert_eq!(f.mul(3, 5), 1);
/// assert_eq!(f.inv(3)?, 5);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrimeField {
    modulus: u64,
}

impl PrimeField {
    /// Creates the field `Z_p`.
    ///
    /// # Errors
    ///
    /// Returns [`ModMathError::NotPrime`] if `p` is not an odd prime
    /// (`p = 2` is rejected because the protocol needs odd characteristic).
    pub fn new(p: u64) -> Result<Self, ModMathError> {
        if p < 3 || !is_prime(p) {
            return Err(ModMathError::NotPrime { modulus: p });
        }
        Ok(PrimeField { modulus: p })
    }

    /// Rebuilds a field whose modulus was already validated by [`Self::new`]
    /// (e.g. cached moduli inside [`crate::SchnorrGroup`]). Skips the
    /// primality re-check so reconstruction is infallible.
    pub(crate) fn from_validated_modulus(p: u64) -> Self {
        debug_assert!(p >= 3 && is_prime(p));
        PrimeField { modulus: p }
    }

    /// The field modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Number of bits in the modulus (the `log p` of the paper's Table 1).
    pub fn bits(&self) -> u32 {
        64 - self.modulus.leading_zeros()
    }

    /// Returns `true` iff `v` is a canonical field element (`v < p`).
    pub fn contains(&self, v: u64) -> bool {
        v < self.modulus
    }

    /// Reduces an arbitrary `u64` into the field.
    pub fn reduce(&self, v: u64) -> u64 {
        v % self.modulus
    }

    /// Reduces a signed value into the field (useful for small negative
    /// constants appearing in Lagrange coefficients).
    pub fn reduce_i128(&self, v: i128) -> u64 {
        let m = self.modulus as i128;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "in range: `((v % m) + m) % m` lies in `[0, m)` and `m` fits in u64"
        )]
        {
            (((v % m) + m) % m) as u64
        }
    }

    /// Adds two field elements.
    ///
    /// # Panics
    /// Debug-panics if an operand is not reduced.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        arith::add_mod(a, b, self.modulus)
    }

    /// Subtracts `b` from `a`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        arith::sub_mod(a, b, self.modulus)
    }

    /// Negates a field element.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            self.modulus - a
        }
    }

    /// Multiplies two field elements.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        arith::mul_mod(a, b, self.modulus)
    }

    /// Raises `base` to `exp`.
    #[inline]
    pub fn pow(&self, base: u64, exp: u64) -> u64 {
        arith::pow_mod(base, exp, self.modulus)
    }

    /// Computes the multiplicative inverse of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`ModMathError::NotInvertible`] when `a == 0`.
    pub fn inv(&self, a: u64) -> Result<u64, ModMathError> {
        arith::inv_mod(a, self.modulus).ok_or(ModMathError::NotInvertible {
            value: a,
            modulus: self.modulus,
        })
    }

    /// Divides `a` by `b` (multiplication by the inverse).
    ///
    /// # Errors
    ///
    /// Returns [`ModMathError::NotInvertible`] when `b == 0`.
    pub fn div(&self, a: u64, b: u64) -> Result<u64, ModMathError> {
        Ok(self.mul(a, self.inv(b)?))
    }

    /// Samples a uniform field element.
    pub fn rand_element<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.modulus)
    }

    /// Samples a uniform *non-zero* field element, as required for the random
    /// polynomial coefficients of the paper's Section 2.4 ("assuming random
    /// picking of the polynomial coefficients from `Z_p*`").
    pub fn rand_nonzero<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(1..self.modulus)
    }

    /// Samples `count` pairwise-distinct non-zero elements — the pseudonym
    /// set `A = {α_1, …, α_n}` of the protocol's initialization phase.
    ///
    /// # Panics
    ///
    /// Panics if `count >= p` (not enough distinct non-zero elements).
    pub fn rand_distinct_nonzero<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<u64> {
        assert!(
            (count as u128) < self.modulus as u128,
            "cannot draw {count} distinct non-zero elements from Z_{}",
            self.modulus
        );
        let mut out = Vec::with_capacity(count);
        let mut seen = std::collections::HashSet::with_capacity(count);
        while out.len() < count {
            let v = self.rand_nonzero(rng);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_composite_and_even_moduli() {
        assert!(PrimeField::new(0).is_err());
        assert!(PrimeField::new(1).is_err());
        assert!(
            PrimeField::new(2).is_err(),
            "characteristic two is rejected"
        );
        assert!(PrimeField::new(9).is_err());
        assert!(PrimeField::new(7).is_ok());
    }

    #[test]
    fn bits_counts_modulus_size() {
        assert_eq!(PrimeField::new(7).unwrap().bits(), 3);
        assert_eq!(PrimeField::new(1031).unwrap().bits(), 11);
    }

    #[test]
    fn reduce_i128_handles_negatives() {
        let f = PrimeField::new(7).unwrap();
        assert_eq!(f.reduce_i128(-1), 6);
        assert_eq!(f.reduce_i128(-7), 0);
        assert_eq!(f.reduce_i128(15), 1);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let f = PrimeField::new(1031).unwrap();
        for a in [0u64, 1, 515, 1030] {
            assert_eq!(f.add(a, f.neg(a)), 0);
        }
    }

    #[test]
    fn div_by_zero_errors() {
        let f = PrimeField::new(7).unwrap();
        assert_eq!(
            f.div(3, 0),
            Err(ModMathError::NotInvertible {
                value: 0,
                modulus: 7
            })
        );
    }

    #[test]
    fn distinct_nonzero_draws_are_distinct_and_nonzero() {
        let f = PrimeField::new(1031).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let xs = f.rand_distinct_nonzero(100, &mut rng);
        assert_eq!(xs.len(), 100);
        let set: std::collections::HashSet<_> = xs.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!(xs.iter().all(|&x| x != 0 && x < 1031));
    }

    #[test]
    #[should_panic(expected = "distinct non-zero")]
    fn distinct_nonzero_panics_when_field_too_small() {
        let f = PrimeField::new(7).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let _ = f.rand_distinct_nonzero(7, &mut rng);
    }

    proptest! {
        #[test]
        fn div_inverts_mul(a in 0u64..1031, b in 1u64..1031) {
            let f = PrimeField::new(1031).unwrap();
            prop_assert_eq!(f.div(f.mul(a, b), b).unwrap(), a);
        }

        #[test]
        fn fermat_little_theorem(a in 1u64..1031) {
            let f = PrimeField::new(1031).unwrap();
            prop_assert_eq!(f.pow(a, 1030), 1);
        }
    }
}
