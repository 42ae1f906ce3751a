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
//!
//! # The secret boundary
//!
//! Theorem 10 (losing bids stay hidden below `c` colluders) holds only
//! if no raw bid and no secret coefficient reaches the wire. The types
//! of this module keep both inside `dmw-crypto`:
//!
//! * a bid enters as a [`SecretBid`], whose value only
//!   [`BidPolynomials::generate`] reads; outside this crate it can only
//!   be compared with a public value ([`SecretBid::is`]);
//! * [`BidPolynomials`] hands out evaluations — share bundles and the
//!   winner's claim points — never its polynomials;
//! * neither type fits any field of the wire message
//!   (`dmw::messages::Body`), and both print a redacted `Debug`.
//!
//! The boundary is a type boundary, not a cryptographic one: code that
//! holds the public bid matrix (the runner, the obedient baseline) still
//! sees plain `u64`s, and `SecretBid::is` answers equality for any value
//! asked. It turns an accidental leak into a compile error; the
//! transcript sweep of `tests/tests/privacy.rs` checks actual runs.

use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use dmw_modmath::{Poly, PrimeField, SchnorrGroup};
use rand::Rng;
use std::fmt;

/// An agent's true bid for one task auction, sealed inside this crate.
///
/// It fits no wire-message field, and has no `Copy`, no conversion back
/// to `u64`, and a `Debug` that prints no value; see the
/// [module docs](self).
pub struct SecretBid(u64);

impl SecretBid {
    /// Seals `bid`.
    pub fn new(bid: u64) -> Self {
        SecretBid(bid)
    }

    /// Whether the sealed bid equals the public `value` — an agent's
    /// "is the resolved first price my bid?" test.
    pub fn is(&self, value: u64) -> bool {
        self.0 == value
    }
}

impl fmt::Debug for SecretBid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecretBid").finish_non_exhaustive()
    }
}

/// The four private evaluations an agent sends to one peer (Phase II.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
///
/// Its polynomials never leave this crate, and its `Debug` prints none
/// of them; see the [module docs](self).
#[derive(Clone)]
pub struct BidPolynomials {
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
        bid: &SecretBid,
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        if group.q() < encoding.min_group_order() {
            return Err(CryptoError::GroupTooSmall {
                q: group.q(),
                required: encoding.min_group_order(),
            });
        }
        let tau = encoding.degree_of_bid(bid.0)?;
        let sigma = encoding.sigma();
        let zq = group.zq();
        Ok(BidPolynomials {
            e: Poly::random_zero_constant(&zq, tau, rng),
            f: Poly::random_zero_constant(&zq, sigma - tau, rng),
            g: Poly::random_zero_constant(&zq, sigma, rng),
            h: Poly::random_zero_constant(&zq, sigma, rng),
        })
    }

    /// The bid polynomial `e` (degree `τ`).
    pub(crate) fn e(&self) -> &Poly {
        &self.e
    }

    /// The witness polynomial `f` (degree `σ − τ = y`).
    pub(crate) fn f(&self) -> &Poly {
        &self.f
    }

    /// The blinding polynomial `g` (degree `σ`).
    pub(crate) fn g(&self) -> &Poly {
        &self.g
    }

    /// The blinding polynomial `h` (degree `σ`).
    pub(crate) fn h(&self) -> &Poly {
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

    /// The winner's claim point `(f(α), h(α))` at a pseudonym whose
    /// holder never received its share bundle; verifiers bind it to the
    /// Phase II.3 commitments through equation (9) before equation (13)
    /// uses it.
    pub fn claim_point(&self, zq: &PrimeField, alpha: u64) -> (u64, u64) {
        (self.f.eval(zq, alpha), self.h.eval(zq, alpha))
    }

    /// The product polynomial `e(x)·f(x)` of degree `σ` whose coefficients
    /// `v_2 … v_σ` (with `v_0 = v_1 = 0`) are committed in the `O` vector
    /// (Phase II.2, equation (5)).
    pub(crate) fn ef_product(&self, zq: &PrimeField) -> Poly {
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

impl fmt::Debug for BidPolynomials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BidPolynomials").finish_non_exhaustive()
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
            let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(bid), &mut rng)
                .unwrap();
            let tau = encoding.degree_of_bid(bid).unwrap();
            assert_eq!(p.e().degree(), Some(tau));
            assert_eq!(p.f().degree(), Some(encoding.f_degree_of_bid(bid).unwrap()));
            assert_eq!(p.g().degree(), Some(encoding.sigma()));
            assert_eq!(p.h().degree(), Some(encoding.sigma()));
            assert_eq!(tau + p.f().degree().unwrap(), encoding.sigma());
        }
    }

    #[test]
    fn all_polynomials_have_zero_constant() {
        let (group, encoding, mut rng) = setup();
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
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
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(0), &mut rng),
            Err(CryptoError::BidOutOfRange { .. })
        ));
        assert!(matches!(
            BidPolynomials::generate(
                &group,
                &encoding,
                &SecretBid::new(encoding.w_max() + 1),
                &mut rng
            ),
            Err(CryptoError::BidOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_tiny_groups() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let group = SchnorrGroup::generate_with_order(8, 5, &mut rng).unwrap();
        let encoding = BidEncoding::new(6, 1).unwrap();
        assert!(matches!(
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(1), &mut rng),
            Err(CryptoError::GroupTooSmall { .. })
        ));
    }

    #[test]
    fn shares_are_evaluations() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(3), &mut rng).unwrap();
        let alphas = zq.rand_distinct_nonzero(encoding.agents(), &mut rng);
        assert_eq!(alphas.len(), 6);
        for &a in &alphas {
            let b = p.share_for(&zq, a);
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
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let ef = p.ef_product(&zq);
        assert_eq!(ef.degree(), Some(encoding.sigma()));
        assert_eq!(ef.coeff(0), 0);
        assert_eq!(ef.coeff(1), 0);
    }

    #[test]
    fn claim_points_are_the_f_and_h_evaluations() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let bundle = p.share_for(&zq, 9);
        assert_eq!(p.claim_point(&zq, 9), (bundle.f, bundle.h));
    }

    #[test]
    fn a_secret_bid_answers_equality_only() {
        let bid = SecretBid::new(3);
        assert!(bid.is(3));
        assert!(!bid.is(2));
        assert_eq!(format!("{bid:?}"), "SecretBid { .. }");
    }

    #[test]
    fn debug_prints_no_coefficient() {
        let (group, encoding, mut rng) = setup();
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        assert_eq!(format!("{p:?}"), "BidPolynomials { .. }");
    }

    #[test]
    fn substitution_changes_degree() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let p = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let corrupted = p.with_substituted_e(&zq, 2, &mut rng);
        assert_eq!(corrupted.e().degree(), Some(2));
    }
}
