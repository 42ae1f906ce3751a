//! [`PrimeField`]: a runtime-modulus prime field `Z_p`.
//!
//! Protocol code manipulates two fields: `Z_q` (exponents, polynomial
//! coefficients, shares) and the order-`q` subgroup of `Z_p*` (commitments
//! and published values). `PrimeField` gives both a validated, ergonomic
//! surface. Elements are plain `u64` values already
//! reduced into `[0, p)`; the newtype lives at the field level rather than
//! the element level so that values can flow through messages and
//! serialization without carrying the modulus along.
//!
//! # Montgomery form
//!
//! [`PrimeField::mul`], [`PrimeField::pow`], [`crate::Poly::eval`] and the
//! ladders of [`crate::multiexp`] multiply in Montgomery form (P. L.
//! Montgomery, "Modular multiplication without trial division", Math.
//! Comp. 1985) with `R = 2⁶⁴`: a residue `x` is represented by
//! `x·R mod p`, and the product of two representatives is reduced with
//! three 64-bit multiplications and no division. Each operation converts
//! its operands in once and its result out once, so every value that
//! leaves the field is a canonical residue in `[0, p)`. [`crate::arith`]
//! keeps the plain `u128 %` arithmetic as the reference the tests compare
//! against.

use crate::arith;
use crate::error::ModMathError;
use crate::ops;
use crate::prime::is_prime;
use rand::Rng;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimeField {
    modulus: u64,
    /// `p⁻¹ mod 2⁶⁴`, the Montgomery reduction constant.
    p_inv: u64,
    /// `R² mod p`, which maps a residue into Montgomery form.
    r2: u64,
}

/// Splits the full 128-bit product `a · b` into its `(high, low)` words.
#[inline]
fn wide_mul(a: u64, b: u64) -> (u64, u64) {
    let t = u128::from(a) * u128::from(b);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "intended: `t >> 64` is below 2⁶⁴ and `t as u64` keeps the low word"
    )]
    ((t >> 64) as u64, t as u64)
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
        Ok(Self::from_validated_modulus(p))
    }

    /// Rebuilds a field whose modulus was already validated by [`Self::new`]
    /// (e.g. cached moduli inside [`crate::SchnorrGroup`]). Skips the
    /// primality re-check so reconstruction is infallible.
    pub(crate) fn from_validated_modulus(p: u64) -> Self {
        debug_assert!(p >= 3 && is_prime(p));
        // Newton's iteration for p⁻¹ mod 2⁶⁴: an odd p is its own inverse
        // mod 2³, and each step doubles the number of correct low bits.
        let mut p_inv = p;
        for _ in 0..5 {
            p_inv = p_inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(p_inv)));
        }
        let p128 = u128::from(p);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "in range: a residue mod p is below p < 2⁶⁴"
        )]
        let r2 = ((u128::MAX % p128 + 1) % p128) as u64;
        PrimeField {
            modulus: p,
            p_inv,
            r2,
        }
    }

    /// Montgomery reduction: returns `t · R⁻¹ mod p` for
    /// `t = hi·2⁶⁴ + lo < p·2⁶⁴`, as a canonical residue.
    ///
    /// With `u = lo · p⁻¹ mod 2⁶⁴`, the low words of `t` and `u·p` agree,
    /// so `(t − u·p) / 2⁶⁴ = hi − ⌊u·p / 2⁶⁴⌋` lies in `(−p, p)`. The
    /// subtractive form needs no headroom above `p`, so it holds for every
    /// odd 64-bit modulus.
    #[inline]
    fn redc(&self, hi: u64, lo: u64) -> u64 {
        debug_assert!(hi < self.modulus);
        let u = lo.wrapping_mul(self.p_inv);
        let (up_hi, _) = wide_mul(u, self.modulus);
        let (r, borrow) = hi.overflowing_sub(up_hi);
        if borrow {
            r.wrapping_add(self.modulus)
        } else {
            r
        }
    }

    /// Returns `a · b · R⁻¹ mod p`; on two representatives that is the
    /// representative of their product. Needs `a · b < p · 2⁶⁴`, which
    /// holds whenever one operand is below `p`.
    #[inline]
    pub(crate) fn mont_mul(&self, a: u64, b: u64) -> u64 {
        let (hi, lo) = wide_mul(a, b);
        self.redc(hi, lo)
    }

    /// Maps `x` to the representative of `x mod p`, i.e. `x · R mod p`.
    /// Any `u64` is accepted: `x · R² < p · 2⁶⁴` because `R² mod p < p`.
    #[inline]
    pub(crate) fn mont_in(&self, x: u64) -> u64 {
        self.mont_mul(x, self.r2)
    }

    /// Maps a representative back to its canonical residue.
    #[inline]
    pub(crate) fn mont_out(&self, x: u64) -> u64 {
        self.redc(0, x)
    }

    /// The representative of `1`, i.e. `R mod p`.
    #[inline]
    pub(crate) fn mont_one(&self) -> u64 {
        self.redc(0, self.r2)
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
    ///
    /// Two Montgomery products, `(a·R)·b·R⁻¹ = a·b`; it records one
    /// multiplication, like [`arith::mul_mod`].
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.modulus && b < self.modulus);
        ops::record_mul();
        self.mont_mul(self.mont_in(a), b)
    }

    /// Raises `base` to `exp`.
    ///
    /// The same right-to-left binary ladder as [`arith::pow_mod`], run in
    /// Montgomery form. It records the same counts: one `pow` and
    /// `popcount(exp) + bits(exp) − 1` multiplications, tallied locally and
    /// flushed once.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        debug_assert!(base < self.modulus);
        ops::record_pow();
        if exp == 0 {
            return 1;
        }
        ops::record_muls(u64::from(exp.count_ones() + (63 - exp.leading_zeros())));
        let mut result = self.mont_one();
        let mut acc = self.mont_in(base);
        loop {
            if exp & 1 == 1 {
                result = self.mont_mul(result, acc);
            }
            exp >>= 1;
            if exp == 0 {
                break;
            }
            acc = self.mont_mul(acc, acc);
        }
        self.mont_out(result)
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
        let mut seen = std::collections::BTreeSet::new();
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// The moduli the Montgomery paths are pinned on: two tiny primes, a
    /// small field, a generated 48-bit group modulus, the largest 63-bit
    /// prime and the largest 64-bit prime.
    pub(crate) fn reference_fields() -> &'static [PrimeField] {
        static FIELDS: OnceLock<Vec<PrimeField>> = OnceLock::new();
        FIELDS.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(48);
            let group = crate::SchnorrGroup::generate(48, 20, &mut rng).unwrap();
            assert_eq!(group.zp().bits(), 48);
            [
                3,
                7,
                1031,
                group.p(),
                0x7FFF_FFFF_FFFF_FFE7,
                0xFFFF_FFFF_FFFF_FFC5,
            ]
            .into_iter()
            .map(|p| PrimeField::new(p).unwrap())
            .collect()
        })
    }

    #[test]
    fn montgomery_constants_invert_the_modulus() {
        for f in reference_fields() {
            let p = f.modulus();
            assert_eq!(p.wrapping_mul(f.p_inv), 1, "p = {p}");
            let r = arith::pow_mod(2, 64, p);
            assert_eq!(f.r2, arith::mul_mod(r, r, p), "p = {p}");
            assert_eq!(f.mont_one(), r, "p = {p}");
        }
    }

    #[test]
    fn montgomery_round_trips_edge_residues() {
        for f in reference_fields() {
            let p = f.modulus();
            for x in [0, 1, 2, p / 2, p - 2, p - 1] {
                assert_eq!(f.mont_out(f.mont_in(x)), x, "p = {p}");
                for y in [0, 1, 2, p / 2, p - 2, p - 1] {
                    assert_eq!(f.mul(x, y), arith::mul_mod(x, y, p), "{x}·{y} mod {p}");
                }
                for e in [0, 1, 2, p - 2, p - 1, u64::MAX] {
                    assert_eq!(f.pow(x, e), arith::pow_mod(x, e, p), "{x}^{e} mod {p}");
                }
            }
        }
    }

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
        let set: std::collections::BTreeSet<_> = xs.iter().copied().collect();
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
        fn montgomery_mul_matches_reference(
            a in proptest::num::u64::ANY,
            b in proptest::num::u64::ANY,
        ) {
            for f in reference_fields() {
                let p = f.modulus();
                let (a, b) = (a % p, b % p);
                crate::ops::reset_ops();
                let fast = f.mul(a, b);
                let fast_ops = crate::ops::take_ops();
                let reference = arith::mul_mod(a, b, p);
                prop_assert_eq!(fast, reference, "{}·{} mod {}", a, b, p);
                prop_assert_eq!(fast_ops, crate::ops::take_ops());
            }
        }

        #[test]
        fn montgomery_pow_matches_reference(
            a in proptest::num::u64::ANY,
            e in proptest::num::u64::ANY,
            bits in 0u32..64,
        ) {
            // Short exponents too, so every ladder length is exercised.
            let e = e >> bits;
            for f in reference_fields() {
                let p = f.modulus();
                let a = a % p;
                crate::ops::reset_ops();
                let fast = f.pow(a, e);
                let fast_ops = crate::ops::take_ops();
                let reference = arith::pow_mod(a, e, p);
                prop_assert_eq!(fast, reference, "{}^{} mod {}", a, e, p);
                prop_assert_eq!(fast_ops, crate::ops::take_ops());
            }
        }

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
