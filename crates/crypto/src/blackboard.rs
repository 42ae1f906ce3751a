//! A transport-free reference execution of one DMW task auction.
//!
//! [`honest_auction`] runs every cryptographic step of Phases II and III on
//! an in-memory "blackboard", with all agents honest. It serves three
//! purposes:
//!
//! * a *reference semantics* against which the networked implementation in
//!   the `dmw` crate is tested for equivalence;
//! * the micro-benchmark target for the computational-cost row of Table 1
//!   (no networking noise);
//! * an executable specification that mirrors the paper's protocol listing
//!   step by step.

use crate::commitments::{verify_shares, Commitments};
use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use crate::polynomials::BidPolynomials;
use crate::resolution::{
    compute_lambda_psi, exclude_winner, identify_winner, resolve_min_bid, verify_f_disclosure,
    verify_lambda_psi, LambdaPsi,
};
use dmw_modmath::SchnorrGroup;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The outcome of one fully verified task auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuctionOutcome {
    /// Index of the winning agent (task is assigned to it).
    pub winner: usize,
    /// The lowest bid `y*`.
    pub first_price: u64,
    /// The second-lowest bid `y**` — the winner's payment.
    pub second_price: u64,
}

/// Runs one complete, honest DMW task auction for the given discrete bids.
///
/// Executes, in order: polynomial generation (II.1), share distribution
/// (II.2), commitment publication (II.3), share verification (III.1,
/// equations (7)–(9)), `Λ/Ψ` publication and validation (III.2, equations
/// (10)–(11)), first-price resolution (equation (12)), `f`-share disclosure
/// with validation and winner identification (III.3, equations (13)–(14)),
/// winner exclusion and second-price resolution (III.4, equation (15)).
///
/// # Errors
///
/// * [`CryptoError::BidOutOfRange`] / [`CryptoError::GroupTooSmall`] for
///   invalid inputs;
/// * [`CryptoError::LengthMismatch`] if `bids.len() != encoding.agents()`;
/// * verification errors cannot occur on this honest path except for the
///   `≈ |W|/q` accidental-resolution probability, surfaced as
///   [`CryptoError::ResolutionFailed`].
pub fn honest_auction<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    encoding: &BidEncoding,
    bids: &[u64],
    rng: &mut R,
) -> Result<AuctionOutcome, CryptoError> {
    let n = encoding.agents();
    if bids.len() != n {
        return Err(CryptoError::LengthMismatch {
            what: "bid vector",
            got: bids.len(),
            expected: n,
        });
    }
    let zq = group.zq();

    // Phase I: pseudonyms (published by the initializer in the real
    // protocol; sampled here).
    let alphas = zq.rand_distinct_nonzero(n, rng);

    // Phase II.1: every agent samples its polynomial quadruple.
    let polys: Vec<BidPolynomials> = bids
        .iter()
        .map(|&b| BidPolynomials::generate(group, encoding, b, rng))
        .collect::<Result<_, _>>()?;

    // Phase II.2–II.3: shares and commitments.
    let commitments: Vec<Commitments> = polys
        .iter()
        .map(|p| Commitments::commit(group, encoding, p))
        .collect();

    // Phase III.1: every agent verifies every received bundle (every
    // receiver checks every sender, itself included).
    for &alpha in &alphas {
        for (poly, comm) in polys.iter().zip(&commitments) {
            let bundle = poly.share_for(&zq, alpha);
            verify_shares(group, comm, alpha, &bundle)?;
        }
    }

    // Phase III.2: publish and validate lambda/psi.
    let pairs: Vec<LambdaPsi> = alphas
        .iter()
        .map(|&a| {
            let e_shares: Vec<u64> = polys.iter().map(|p| p.e().eval(&zq, a)).collect();
            let h_shares: Vec<u64> = polys.iter().map(|p| p.h().eval(&zq, a)).collect();
            compute_lambda_psi(group, &e_shares, &h_shares)
        })
        .collect();
    for (i, (pair, &alpha)) in pairs.iter().zip(&alphas).enumerate() {
        verify_lambda_psi(group, &commitments, i, alpha, pair, None)?;
    }

    // First-price resolution (equation (12)).
    let lambdas: Vec<u64> = pairs.iter().map(|p| p.lambda).collect();
    let first = resolve_min_bid(group, encoding, &alphas, &lambdas)?;

    // Phase III.3: f-share disclosure (equation (13)) and winner
    // identification (equation (14)).
    let needed = encoding.winner_points(first.bid);
    let disclosed_alphas: Vec<u64> = alphas.iter().copied().take(needed).collect();
    for (k, (&alpha, pair)) in disclosed_alphas.iter().zip(&pairs).enumerate() {
        let disclosed: Vec<u64> = polys.iter().map(|p| p.f().eval(&zq, alpha)).collect();
        verify_f_disclosure(group, &commitments, k, alpha, &disclosed, pair.psi)?;
    }
    let f_columns: Vec<Vec<u64>> = polys
        .iter()
        .map(|p| {
            disclosed_alphas
                .iter()
                .map(|&a| p.f().eval(&zq, a))
                .collect()
        })
        .collect();
    let winner = identify_winner(group, encoding, first.bid, &disclosed_alphas, &f_columns)?;

    // Phase III.4: exclusion and second-price resolution (equation (15)).
    // `identify_winner` returns an index into `f_columns`, which has one
    // column per agent, so the lookup cannot miss.
    let winner_poly = polys.get(winner).ok_or(CryptoError::NoWinner)?;
    let excluded: Vec<LambdaPsi> = pairs
        .iter()
        .zip(&alphas)
        .map(|(pair, &alpha)| {
            let e_star = winner_poly.e().eval(&zq, alpha);
            let h_star = winner_poly.h().eval(&zq, alpha);
            exclude_winner(group, pair, e_star, h_star)
        })
        .collect::<Result<_, _>>()?;
    for (i, (pair, &alpha)) in excluded.iter().zip(&alphas).enumerate() {
        verify_lambda_psi(group, &commitments, i, alpha, pair, Some(winner))?;
    }
    let lambdas2: Vec<u64> = excluded.iter().map(|p| p.lambda).collect();
    let second = resolve_min_bid(group, encoding, &alphas, &lambdas2)?;

    Ok(AuctionOutcome {
        winner,
        first_price: first.bid,
        second_price: second.bid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn group(seed: u64) -> SchnorrGroup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SchnorrGroup::generate(40, 20, &mut rng).unwrap()
    }

    #[test]
    fn auction_matches_plain_vickrey() {
        let g = group(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let encoding = BidEncoding::new(6, 1).unwrap();
        let bids = [4u64, 2, 3, 4, 1, 3];
        let outcome = honest_auction(&g, &encoding, &bids, &mut rng).unwrap();
        assert_eq!(outcome.winner, 4);
        assert_eq!(outcome.first_price, 1);
        assert_eq!(outcome.second_price, 2);
    }

    #[test]
    fn rejects_wrong_bid_count() {
        let g = group(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let encoding = BidEncoding::new(4, 0).unwrap();
        assert!(matches!(
            honest_auction(&g, &encoding, &[1, 2], &mut rng),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn smallest_network_two_agents() {
        let g = group(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // n = 2, c = 0: a single bid level W = {1}.
        let encoding = BidEncoding::new(2, 0).unwrap();
        let outcome = honest_auction(&g, &encoding, &[1, 1], &mut rng).unwrap();
        assert_eq!(outcome.winner, 0);
        assert_eq!(outcome.first_price, 1);
        assert_eq!(outcome.second_price, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn distributed_outcome_equals_centralized_vickrey(
            seed in 0u64..10_000,
            n in 3usize..8,
            c in 0usize..2,
        ) {
            prop_assume!(n >= c + 3);
            let g = group(seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(1));
            let encoding = BidEncoding::new(n, c).unwrap();
            let w_max = encoding.w_max();
            let bids: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=w_max)).collect();
            let outcome = honest_auction(&g, &encoding, &bids, &mut rng).unwrap();
            // Centralized reference.
            let min = *bids.iter().min().unwrap();
            let winner = bids.iter().position(|&b| b == min).unwrap();
            let second = bids.iter().enumerate()
                .filter(|&(i, _)| i != winner)
                .map(|(_, &b)| b).min().unwrap();
            prop_assert_eq!(outcome.winner, winner);
            prop_assert_eq!(outcome.first_price, min);
            prop_assert_eq!(outcome.second_price, second);
        }
    }
}
