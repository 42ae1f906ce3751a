//! [`SchnorrGroup`]: the algebraic setting of DMW's commitments.
//!
//! The protocol's initialization phase publishes "large primes `p`, `q` such
//! that `q | p − 1`" and "`z1, z2 ∈ Z_p*` distinct generators of order `q`"
//! (Section 3, Notation). Commitments such as `O = z1^v · z2^c (mod p)` are
//! Pedersen commitments in the order-`q` subgroup of `Z_p*`; their hiding
//! property rests on the discrete logarithm of `z2` with respect to `z1`
//! being unknown, which we model by sampling the two generators
//! independently.
//!
//! All *exponent* arithmetic (polynomial coefficients, shares, Lagrange
//! coefficients `ρ_k`) happens in `Z_q`; all *group* arithmetic (commitment
//! multiplication, `Λ/Ψ/Γ/Φ` values) happens modulo `p`. The paper is loose
//! about this split (it writes polynomials over `Z_p*` but reduces `ρ_k`
//! mod `q`); this implementation keeps the split strict, as recorded in
//! DESIGN.md.

use crate::error::ModMathError;
use crate::field::PrimeField;
use crate::prime::{is_prime, random_prime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Public parameters `(p, q, z1, z2)` of the order-`q` subgroup of `Z_p*`.
///
/// # Example
/// ```
/// use dmw_modmath::SchnorrGroup;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let group = SchnorrGroup::generate(40, 16, &mut rng)?;
/// assert_eq!((group.p() - 1) % group.q(), 0); // q | p − 1
/// // Both generators have order exactly q.
/// assert_eq!(group.zp().pow(group.z1(), group.q()), 1);
/// assert_eq!(group.zp().pow(group.z2(), group.q()), 1);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchnorrGroup {
    p: u64,
    q: u64,
    z1: u64,
    z2: u64,
    /// Cached ambient field, so `zp()` costs nothing per call.
    #[serde(skip, default)]
    zp: Option<PrimeField>,
    /// Cached exponent field.
    #[serde(skip, default)]
    zq: Option<PrimeField>,
}

impl SchnorrGroup {
    /// Maximum attempts when searching for `p = kq + 1` prime.
    const MAX_ATTEMPTS: u32 = 100_000;

    /// Generates fresh group parameters with `|p| = p_bits`, `|q| = q_bits`.
    ///
    /// # Errors
    ///
    /// * [`ModMathError::InvalidGroupSize`] when the bit sizes are
    ///   incompatible (`q_bits + 2 > p_bits` or `p_bits > 63`).
    /// * [`ModMathError::GroupGenerationFailed`] when no suitable `p` is
    ///   found within the attempt budget (practically unreachable for sane
    ///   sizes).
    pub fn generate<R: Rng + ?Sized>(
        p_bits: u32,
        q_bits: u32,
        rng: &mut R,
    ) -> Result<Self, ModMathError> {
        if p_bits > 63 || q_bits < 3 || q_bits + 2 > p_bits {
            return Err(ModMathError::InvalidGroupSize { p_bits, q_bits });
        }
        let q = random_prime(q_bits, rng);
        Self::generate_with_order(p_bits, q, rng)
    }

    /// Generates group parameters for a *given* subgroup order `q`.
    ///
    /// This is what the privacy experiments use to sweep `q` while holding
    /// the rest of the configuration fixed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SchnorrGroup::generate`]; additionally `q` must
    /// be prime.
    pub fn generate_with_order<R: Rng + ?Sized>(
        p_bits: u32,
        q: u64,
        rng: &mut R,
    ) -> Result<Self, ModMathError> {
        if !is_prime(q) {
            return Err(ModMathError::NotPrime { modulus: q });
        }
        let q_bits = 64 - q.leading_zeros();
        if p_bits > 63 || q_bits + 2 > p_bits {
            return Err(ModMathError::InvalidGroupSize { p_bits, q_bits });
        }
        // Search for k with p = k·q + 1 prime and |p| = p_bits.
        let low_k = (1u64 << (p_bits - 1)) / q + 1;
        let high_k = ((1u64 << p_bits) - 1) / q;
        if low_k >= high_k {
            return Err(ModMathError::InvalidGroupSize { p_bits, q_bits });
        }
        for _ in 0..Self::MAX_ATTEMPTS {
            let k = rng.gen_range(low_k..=high_k);
            let p = match k.checked_mul(q).and_then(|kq| kq.checked_add(1)) {
                Some(p) => p,
                None => continue,
            };
            if 64 - p.leading_zeros() != p_bits || !is_prime(p) {
                continue;
            }
            let z1 = Self::find_generator(p, q, rng);
            let z2 = loop {
                let candidate = Self::find_generator(p, q, rng);
                if candidate != z1 {
                    break candidate;
                }
            };
            return Ok(SchnorrGroup::assemble(p, q, z1, z2));
        }
        Err(ModMathError::GroupGenerationFailed { p_bits, q_bits })
    }

    /// Picks a random element of order exactly `q` in `Z_p*`.
    fn find_generator<R: Rng + ?Sized>(p: u64, q: u64, rng: &mut R) -> u64 {
        let zp = PrimeField::from_validated_modulus(p);
        let cofactor = (p - 1) / q;
        loop {
            let h = rng.gen_range(2..p - 1);
            let g = zp.pow(h, cofactor);
            if g != 1 {
                debug_assert_eq!(zp.pow(g, q), 1);
                return g;
            }
        }
    }

    /// Constructs a group from explicit parameters, validating every
    /// requirement of the paper's Notation section.
    ///
    /// # Errors
    ///
    /// Returns an error if `p` or `q` is not prime, `q ∤ p − 1`, either
    /// generator is out of range, of wrong order, or the generators are not
    /// distinct.
    pub fn from_parts(p: u64, q: u64, z1: u64, z2: u64) -> Result<Self, ModMathError> {
        if !is_prime(p) {
            return Err(ModMathError::NotPrime { modulus: p });
        }
        if !is_prime(q) {
            return Err(ModMathError::NotPrime { modulus: q });
        }
        if !(p - 1).is_multiple_of(q) {
            return Err(ModMathError::InvalidGroupSize {
                p_bits: 64 - p.leading_zeros(),
                q_bits: 64 - q.leading_zeros(),
            });
        }
        let zp = PrimeField::new(p)?;
        for z in [z1, z2] {
            if z <= 1 || z >= p {
                return Err(ModMathError::OutOfRange {
                    value: z,
                    modulus: p,
                });
            }
            if zp.pow(z, q) != 1 {
                return Err(ModMathError::OutOfRange {
                    value: z,
                    modulus: p,
                });
            }
        }
        if z1 == z2 {
            return Err(ModMathError::OutOfRange {
                value: z2,
                modulus: p,
            });
        }
        Ok(SchnorrGroup::assemble(p, q, z1, z2))
    }

    /// Builds the struct with cached fields; inputs already validated.
    fn assemble(p: u64, q: u64, z1: u64, z2: u64) -> Self {
        SchnorrGroup {
            p,
            q,
            z1,
            z2,
            zp: Some(PrimeField::from_validated_modulus(p)),
            zq: Some(PrimeField::from_validated_modulus(q)),
        }
    }

    /// The group modulus `p`.
    pub fn p(&self) -> u64 {
        self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The first generator `z1`.
    pub fn z1(&self) -> u64 {
        self.z1
    }

    /// The second generator `z2`.
    pub fn z2(&self) -> u64 {
        self.z2
    }

    /// The ambient field `Z_p` in which group elements are multiplied.
    pub fn zp(&self) -> PrimeField {
        // The Option is None only for deserialized values (serde skip).
        self.zp
            .unwrap_or_else(|| PrimeField::from_validated_modulus(self.p))
    }

    /// The exponent field `Z_q` in which shares and Lagrange coefficients
    /// are computed.
    pub fn zq(&self) -> PrimeField {
        self.zq
            .unwrap_or_else(|| PrimeField::from_validated_modulus(self.q))
    }

    /// Computes the double-base commitment `z1^a · z2^b (mod p)` — the shape
    /// of every commitment entry in the paper's equation (6).
    ///
    /// # Example
    /// ```
    /// # use dmw_modmath::SchnorrGroup;
    /// # use rand::SeedableRng;
    /// # let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    /// # let g = SchnorrGroup::generate(32, 12, &mut rng)?;
    /// let zp = g.zp();
    /// let c = g.commit(3, 4);
    /// assert_eq!(c, zp.mul(zp.pow(g.z1(), 3), zp.pow(g.z2(), 4)));
    /// # Ok::<(), dmw_modmath::ModMathError>(())
    /// ```
    pub fn commit(&self, a: u64, b: u64) -> u64 {
        let zp = self.zp();
        zp.mul(zp.pow(self.z1, a), zp.pow(self.z2, b))
    }

    /// `z1^a (mod p)`.
    pub fn pow_z1(&self, a: u64) -> u64 {
        self.zp().pow(self.z1, a)
    }

    /// `z2^b (mod p)`.
    pub fn pow_z2(&self, b: u64) -> u64 {
        self.zp().pow(self.z2, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn generated_group_satisfies_notation_requirements() {
        let g = SchnorrGroup::generate(48, 20, &mut rng()).unwrap();
        assert!(is_prime(g.p()));
        assert!(is_prime(g.q()));
        assert_eq!((g.p() - 1) % g.q(), 0);
        assert_ne!(g.z1(), g.z2());
        let zp = g.zp();
        assert_eq!(zp.pow(g.z1(), g.q()), 1);
        assert_eq!(zp.pow(g.z2(), g.q()), 1);
        assert_ne!(g.z1(), 1);
        assert_ne!(g.z2(), 1);
    }

    #[test]
    fn generator_order_is_exactly_q() {
        // Order divides q and q is prime, so order is 1 or q; != 1 checked.
        let g = SchnorrGroup::generate(32, 12, &mut rng()).unwrap();
        assert_ne!(g.pow_z1(1), 1);
    }

    #[test]
    fn rejects_incompatible_sizes() {
        let mut r = rng();
        assert!(matches!(
            SchnorrGroup::generate(64, 16, &mut r),
            Err(ModMathError::InvalidGroupSize { .. })
        ));
        assert!(matches!(
            SchnorrGroup::generate(16, 15, &mut r),
            Err(ModMathError::InvalidGroupSize { .. })
        ));
        assert!(matches!(
            SchnorrGroup::generate(16, 2, &mut r),
            Err(ModMathError::InvalidGroupSize { .. })
        ));
    }

    #[test]
    fn generate_with_order_uses_given_q() {
        let g = SchnorrGroup::generate_with_order(32, 1031, &mut rng()).unwrap();
        assert_eq!(g.q(), 1031);
        assert_eq!((g.p() - 1) % 1031, 0);
    }

    #[test]
    fn generate_with_order_rejects_composite_q() {
        assert!(matches!(
            SchnorrGroup::generate_with_order(32, 1032, &mut rng()),
            Err(ModMathError::NotPrime { modulus: 1032 })
        ));
    }

    #[test]
    fn from_parts_validates() {
        let g = SchnorrGroup::generate(32, 12, &mut rng()).unwrap();
        // Round-trips.
        let rebuilt = SchnorrGroup::from_parts(g.p(), g.q(), g.z1(), g.z2()).unwrap();
        assert_eq!(rebuilt, g);
        // Equal generators rejected.
        assert!(SchnorrGroup::from_parts(g.p(), g.q(), g.z1(), g.z1()).is_err());
        // Element of wrong order rejected (1 has order 1; p-1 has order 2
        // unless q == 2).
        assert!(SchnorrGroup::from_parts(g.p(), g.q(), 1, g.z2()).is_err());
        // Wrong q rejected.
        assert!(SchnorrGroup::from_parts(g.p(), 1031, g.z1(), g.z2()).is_err());
    }

    #[test]
    fn commit_is_homomorphic() {
        // commit(a1+a2, b1+b2) == commit(a1,b1) * commit(a2,b2) — the
        // property DMW leans on when summing bid polynomials.
        let g = SchnorrGroup::generate(40, 16, &mut rng()).unwrap();
        let zq = g.zq();
        let zp = g.zp();
        let (a1, a2, b1, b2) = (17u64, 400u64, 23u64, 90u64);
        let lhs = g.commit(zq.add(a1, a2), zq.add(b1, b2));
        let rhs = zp.mul(g.commit(a1, b1), g.commit(a2, b2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn exponents_reduce_mod_q() {
        let g = SchnorrGroup::generate(40, 16, &mut rng()).unwrap();
        // z1^(q+5) == z1^5 because z1 has order q.
        assert_eq!(g.pow_z1(g.q() + 5), g.pow_z1(5));
    }
}
