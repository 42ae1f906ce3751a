//! Dense polynomials over a prime field.
//!
//! DMW encodes an agent's bid in the *degree* of a randomly chosen
//! polynomial with **zero constant term** (Section 3, Phase II): for a bid
//! `y` and parameter `σ`, the agent samples
//!
//! ```text
//! e(x) = a_1·x + … + a_τ·x^τ           with τ = σ − y,
//! f(x) = b_1·x + … + b_{σ−τ}·x^{σ−τ},
//! g(x), h(x)  of degree σ,
//! ```
//!
//! all with uniformly random non-zero leading coefficients. [`Poly`] provides
//! exactly those constructors plus the evaluation (Horner's rule, the
//! algorithm the paper's Theorem 12 costs at `O(n)` multiplications per
//! share) and ring operations the protocol needs — notably the product
//! `e(x)·f(x)` whose coefficients `v_ℓ` are committed in equation (6).

use crate::field::PrimeField;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense polynomial `c_0 + c_1·x + … + c_d·x^d` over a prime field.
///
/// The coefficient vector is kept *normalized*: no trailing zero
/// coefficients (except the zero polynomial, represented by an empty
/// vector).
///
/// # Example
/// ```
/// use dmw_modmath::{Poly, PrimeField};
///
/// let f = PrimeField::new(101)?;
/// let p = Poly::from_coeffs(&f, vec![0, 2, 3]); // 2x + 3x²
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(&f, 10), (2 * 10 + 3 * 100) % 101);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Builds a polynomial from coefficients `c_0, c_1, …` (lowest degree
    /// first), reducing each into the field and trimming trailing zeros.
    pub fn from_coeffs(field: &PrimeField, coeffs: Vec<u64>) -> Self {
        let mut coeffs: Vec<u64> = coeffs.into_iter().map(|c| field.reduce(c)).collect();
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// Samples a uniformly random polynomial of degree *exactly* `degree`
    /// with zero constant term — the bid-encoding polynomial family of
    /// Phase II. All of `a_1 … a_{d−1}` are uniform in `Z_q` and the leading
    /// coefficient is uniform in `Z_q \ {0}` so the degree is exact.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`; a zero-constant polynomial of degree 0 does
    /// not exist.
    pub fn random_zero_constant<R: Rng + ?Sized>(
        field: &PrimeField,
        degree: usize,
        rng: &mut R,
    ) -> Self {
        assert!(degree >= 1, "a zero-constant polynomial has degree >= 1");
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(0);
        for _ in 1..degree {
            coeffs.push(field.rand_element(rng));
        }
        coeffs.push(field.rand_nonzero(rng));
        Poly { coeffs }
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// The coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// The coefficients, lowest degree first (normalized).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// `true` iff the constant term is zero (vacuously true for the zero
    /// polynomial) — the structural invariant the commitment check of
    /// equation (7) enforces on every bid polynomial.
    pub fn has_zero_constant(&self) -> bool {
        self.coeff(0) == 0
    }

    /// Evaluates the polynomial at `x` by Horner's rule (`deg` multiplications
    /// and additions, as costed in the paper's Theorem 12).
    pub fn eval(&self, field: &PrimeField, x: u64) -> u64 {
        let x = field.reduce(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = field.add(field.mul(acc, x), c);
        }
        acc
    }

    /// Adds two polynomials. The degree of a sum of bid polynomials is the
    /// maximum degree except when leading terms cancel (probability `1/q`,
    /// the resolution-failure probability quoted in Section 2.4).
    pub fn add(&self, field: &PrimeField, other: &Poly) -> Poly {
        let len = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..len)
            .map(|i| field.add(self.coeff(i), other.coeff(i)))
            .collect();
        Poly::from_coeffs(field, coeffs)
    }

    /// Multiplies two polynomials (schoolbook; degrees here are `O(n)`).
    ///
    /// This is the `e_i(x)·f_i(x)` product whose coefficients `v_ℓ` feed the
    /// `O` commitments of equation (6); note `v_0 = v_1 = 0` whenever both
    /// factors have zero constant terms, which is exactly what equation (7)
    /// verifies.
    pub fn mul(&self, field: &PrimeField, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![0u64; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                if let Some(slot) = coeffs.get_mut(i + j) {
                    *slot = field.add(*slot, field.mul(a, b));
                }
            }
        }
        Poly::from_coeffs(field, coeffs)
    }

    /// Evaluates the polynomial at many points, producing the share vector
    /// an agent sends out in Phase II.2.
    pub fn eval_many(&self, field: &PrimeField, xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|&x| self.eval(field, x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn field() -> PrimeField {
        PrimeField::new(1031).unwrap()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn zero_polynomial_properties() {
        let f = field();
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert!(z.has_zero_constant());
        assert_eq!(z.eval(&f, 123), 0);
    }

    #[test]
    fn from_coeffs_normalizes() {
        let f = field();
        let p = Poly::from_coeffs(&f, vec![1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coeffs(), &[1, 2]);
        // Coefficients reduce mod q.
        let p = Poly::from_coeffs(&f, vec![1031, 1032]);
        assert_eq!(p.coeffs(), &[0, 1]);
    }

    #[test]
    fn eval_matches_naive() {
        let f = field();
        let p = Poly::from_coeffs(&f, vec![5, 0, 7, 11]); // 5 + 7x² + 11x³
        let x = 29u64;
        let naive = (5 + 7 * x * x + 11 * x * x * x) % 1031;
        assert_eq!(p.eval(&f, x), naive);
    }

    #[test]
    fn random_zero_constant_has_exact_degree_and_zero_constant() {
        let f = field();
        let mut r = rng();
        for d in 1..=20 {
            let p = Poly::random_zero_constant(&f, d, &mut r);
            assert_eq!(p.degree(), Some(d));
            assert!(p.has_zero_constant());
            assert_eq!(p.eval(&f, 0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "degree >= 1")]
    fn random_zero_constant_rejects_degree_zero() {
        let f = field();
        let _ = Poly::random_zero_constant(&f, 0, &mut rng());
    }

    #[test]
    fn sum_of_bid_polynomials_has_max_degree() {
        // The degree-resolution argument: deg(Σ e_k) = max deg e_k w.h.p.
        let f = field();
        let mut r = rng();
        let e1 = Poly::random_zero_constant(&f, 3, &mut r);
        let e2 = Poly::random_zero_constant(&f, 7, &mut r);
        let e3 = Poly::random_zero_constant(&f, 5, &mut r);
        let sum = e1.add(&f, &e2).add(&f, &e3);
        assert_eq!(sum.degree(), Some(7));
        assert!(sum.has_zero_constant());
    }

    #[test]
    fn product_of_zero_constant_polys_has_zero_v0_v1() {
        // e(x)·f(x) = v_2 x² + … + v_σ x^σ, the structure committed in (6).
        let f = field();
        let mut r = rng();
        let e = Poly::random_zero_constant(&f, 4, &mut r);
        let fp = Poly::random_zero_constant(&f, 3, &mut r);
        let prod = e.mul(&f, &fp);
        assert_eq!(prod.degree(), Some(7));
        assert_eq!(prod.coeff(0), 0);
        assert_eq!(prod.coeff(1), 0);
    }

    #[test]
    fn mul_by_zero_is_zero() {
        let f = field();
        let p = Poly::from_coeffs(&f, vec![0, 1, 2]);
        assert!(p.mul(&f, &Poly::zero()).is_zero());
        assert!(Poly::zero().mul(&f, &p).is_zero());
    }

    proptest! {
        #[test]
        fn add_is_pointwise(
            a in proptest::collection::vec(0u64..1031, 0..8),
            b in proptest::collection::vec(0u64..1031, 0..8),
            x in 0u64..1031,
        ) {
            let f = field();
            let pa = Poly::from_coeffs(&f, a);
            let pb = Poly::from_coeffs(&f, b);
            prop_assert_eq!(
                pa.add(&f, &pb).eval(&f, x),
                f.add(pa.eval(&f, x), pb.eval(&f, x))
            );
        }

        #[test]
        fn mul_is_pointwise(
            a in proptest::collection::vec(0u64..1031, 0..8),
            b in proptest::collection::vec(0u64..1031, 0..8),
            x in 0u64..1031,
        ) {
            let f = field();
            let pa = Poly::from_coeffs(&f, a);
            let pb = Poly::from_coeffs(&f, b);
            prop_assert_eq!(
                pa.mul(&f, &pb).eval(&f, x),
                f.mul(pa.eval(&f, x), pb.eval(&f, x))
            );
        }

        #[test]
        fn eval_many_matches_eval(
            a in proptest::collection::vec(0u64..1031, 0..8),
            xs in proptest::collection::vec(0u64..1031, 0..8),
        ) {
            let f = field();
            let p = Poly::from_coeffs(&f, a);
            let many = p.eval_many(&f, &xs);
            for (x, v) in xs.iter().zip(&many) {
                prop_assert_eq!(p.eval(&f, *x), *v);
            }
        }
    }
}
