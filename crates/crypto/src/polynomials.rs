//! The per-agent secret polynomials of Phase II.
//!
//! For each task auction an agent with bid `y` samples four random
//! polynomials over `Z_q`, all with zero constant term (Phase II.1,
//! equations (3)–(4)):
//!
//! | polynomial | degree      | role                                        |
//! |------------|-------------|---------------------------------------------|
//! | `e`        | `τ = σ − y` | carries the bid in its degree                |
//! | `f`        | `σ − τ = y` | complementary witness, disclosed to prove a win |
//! | `g`        | `σ`         | blinds the `O` commitments to `e·f`          |
//! | `h`        | `σ`         | blinds the `Q`/`R` commitments and `Ψ`       |
//!
//! The agent sends agent `k` the private [`ShareBundle`]
//! `(e(α_k), f(α_k), g(α_k), h(α_k))` and publishes the Pedersen
//! commitments of [`crate::commitments`].

use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use dmw_modmath::{Poly, PrimeField, SchnorrGroup};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four private evaluations an agent sends to one peer (Phase II.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShareBundle {
    /// `e(α_k)` — bid polynomial share.
    pub e: u64,
    /// `f(α_k)` — witness polynomial share.
    pub f: u64,
    /// `g(α_k)` — blinding share for the `O` commitments.
    pub g: u64,
    /// `h(α_k)` — blinding share for the `Q`/`R` commitments and `Ψ`.
    pub h: u64,
}

/// An agent's secret polynomial quadruple for one task auction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidPolynomials {
    bid: u64,
    tau: usize,
    e: Poly,
    f: Poly,
    g: Poly,
    h: Poly,
}

impl BidPolynomials {
    /// Samples the quadruple encoding `bid` under `encoding`, with
    /// coefficients in the exponent field `Z_q` of `group`.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::BidOutOfRange`] for a bid outside `W`;
    /// * [`CryptoError::GroupTooSmall`] when `q` cannot host the encoding.
    pub fn generate<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        encoding: &BidEncoding,
        bid: u64,
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        if group.q() < encoding.min_group_order() {
            return Err(CryptoError::GroupTooSmall {
                q: group.q(),
                required: encoding.min_group_order(),
            });
        }
        let tau = encoding.degree_of_bid(bid)?;
        let sigma = encoding.sigma();
        let zq = group.zq();
        Ok(BidPolynomials {
            bid,
            tau,
            e: Poly::random_zero_constant(&zq, tau, rng),
            f: Poly::random_zero_constant(&zq, sigma - tau, rng),
            g: Poly::random_zero_constant(&zq, sigma, rng),
            h: Poly::random_zero_constant(&zq, sigma, rng),
        })
    }

    /// The encoded bid `y`.
    pub fn bid(&self) -> u64 {
        self.bid
    }

    /// The bid's degree encoding `τ = σ − y`.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The bid polynomial `e` (degree `τ`).
    pub fn e(&self) -> &Poly {
        &self.e
    }

    /// The witness polynomial `f` (degree `σ − τ = y`).
    pub fn f(&self) -> &Poly {
        &self.f
    }

    /// The blinding polynomial `g` (degree `σ`).
    pub fn g(&self) -> &Poly {
        &self.g
    }

    /// The blinding polynomial `h` (degree `σ`).
    pub fn h(&self) -> &Poly {
        &self.h
    }

    /// The share bundle destined for the agent with pseudonym `alpha`
    /// (Phase II.2).
    pub fn share_for(&self, zq: &PrimeField, alpha: u64) -> ShareBundle {
        ShareBundle {
            e: self.e.eval(zq, alpha),
            f: self.f.eval(zq, alpha),
            g: self.g.eval(zq, alpha),
            h: self.h.eval(zq, alpha),
        }
    }

    /// Share bundles for every pseudonym, in order.
    pub fn shares_for_all(&self, zq: &PrimeField, alphas: &[u64]) -> Vec<ShareBundle> {
        alphas.iter().map(|&a| self.share_for(zq, a)).collect()
    }

    /// The product polynomial `e(x)·f(x)` of degree `σ` whose coefficients
    /// `v_2 … v_σ` (with `v_0 = v_1 = 0`) are committed in the `O` vector
    /// (Phase II.2, equation (5)).
    pub fn ef_product(&self, zq: &PrimeField) -> Poly {
        self.e.mul(zq, &self.f)
    }

    /// Deliberately corrupts the constructed polynomials (replaces `e` by a
    /// fresh polynomial of a *different* degree while keeping commitments
    /// computed from the originals). Used by deviation strategies in tests
    /// and faithfulness experiments; an honest agent never calls this.
    pub fn with_substituted_e(
        mut self,
        zq: &PrimeField,
        degree: usize,
        rng: &mut impl Rng,
    ) -> Self {
        self.e = Poly::random_zero_constant(zq, degree, rng);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SchnorrGroup, BidEncoding, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let encoding = BidEncoding::new(6, 1).unwrap();
        (group, encoding, rng)
    }

    #[test]
    fn degrees_follow_the_encoding() {
        let (group, encoding, mut rng) = setup();
        for bid in encoding.bid_set() {
            let p = BidPolynomials::generate(&group, &encoding, bid, &mut rng).unwrap();
            assert_eq!(p.bid(), bid);
            assert_eq!(p.e().degree(), Some(encoding.degree_of_bid(bid).unwrap()));
            assert_eq!(p.f().degree(), Some(encoding.f_degree_of_bid(bid).unwrap()));
            assert_eq!(p.g().degree(), Some(encoding.sigma()));
            assert_eq!(p.h().degree(), Some(encoding.sigma()));
            assert_eq!(p.tau() + p.f().degree().unwrap(), encoding.sigma());
        }
    }

    #[test]
    fn all_polynomials_have_zero_constant() {
        let (group, encoding, mut rng) = setup();
        let p = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let zq = group.zq();
        for poly in [p.e(), p.f(), p.g(), p.h()] {
            assert!(poly.has_zero_constant());
            assert_eq!(poly.eval(&zq, 0), 0);
        }
    }

    #[test]
    fn rejects_out_of_range_bids() {
        let (group, encoding, mut rng) = setup();
        assert!(matches!(
            BidPolynomials::generate(&group, &encoding, 0, &mut rng),
            Err(CryptoError::BidOutOfRange { .. })
        ));
        assert!(matches!(
            BidPolynomials::generate(&group, &encoding, encoding.w_max() + 1, &mut rng),
            Err(CryptoError::BidOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_tiny_groups() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let group = SchnorrGroup::generate_with_order(8, 5, &mut rng).unwrap();
        let encoding = BidEncoding::new(6, 1).unwrap();
        assert!(matches!(
            BidPolynomials::generate(&group, &encoding, 1, &mut rng),
            Err(CryptoError::GroupTooSmall { .. })
        ));
    }

    #[test]
    fn shares_are_evaluations() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, 3, &mut rng).unwrap();
        let alphas = zq.rand_distinct_nonzero(encoding.agents(), &mut rng);
        let bundles = p.shares_for_all(&zq, &alphas);
        assert_eq!(bundles.len(), 6);
        for (&a, b) in alphas.iter().zip(&bundles) {
            assert_eq!(b.e, p.e().eval(&zq, a));
            assert_eq!(b.f, p.f().eval(&zq, a));
            assert_eq!(b.g, p.g().eval(&zq, a));
            assert_eq!(b.h, p.h().eval(&zq, a));
        }
    }

    #[test]
    fn ef_product_has_degree_sigma_and_double_zero_root() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let ef = p.ef_product(&zq);
        assert_eq!(ef.degree(), Some(encoding.sigma()));
        assert_eq!(ef.coeff(0), 0);
        assert_eq!(ef.coeff(1), 0);
    }

    #[test]
    fn substitution_changes_degree() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let corrupted = p.with_substituted_e(&zq, 2, &mut rng);
        assert_eq!(corrupted.e().degree(), Some(2));
    }
}
