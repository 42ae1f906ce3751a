//! The public "blackboard" mathematics of Phase III: validating published
//! aggregates, resolving the first price in the exponent, identifying the
//! winner, and resolving the second price (equations (10)–(15)).
//!
//! After share verification, each agent `i` publishes (Phase III.2,
//! equation (10)):
//!
//! ```text
//! Λ_i = z1^{E(α_i)}   with E = Σ_ℓ e_ℓ  (computable from received shares)
//! Ψ_i = z2^{H(α_i)}   with H = Σ_ℓ h_ℓ
//! ```
//!
//! Anyone can validate a published pair against the commitments via
//! equation (11): `Π_ℓ Γ_{i,ℓ} = Λ_i · Ψ_i`. The first price is then the
//! bid `y* = σ − deg E`, where `deg E` is resolved *in the exponent* by
//! testing `Π_k Λ_k^{ρ_k} = 1` over candidate degrees (equation (12)) —
//! `z1` has order `q`, so the product is 1 exactly when the plain Lagrange
//! interpolation of `E` at zero vanishes mod `q`.

use crate::commitments::Commitments;
use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use dmw_modmath::{lagrange, SchnorrGroup};
use serde::{Deserialize, Serialize};

/// A published `(Λ_i, Ψ_i)` pair (equation (10)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LambdaPsi {
    /// `Λ_i = z1^{E(α_i)}`.
    pub lambda: u64,
    /// `Ψ_i = z2^{H(α_i)}`.
    pub psi: u64,
}

/// Computes agent `i`'s `(Λ_i, Ψ_i)` from the `e`- and `h`-shares it
/// received from every agent (including itself), i.e.
/// `Λ_i = z1^{Σ_ℓ e_ℓ(α_i)}`, `Ψ_i = z2^{Σ_ℓ h_ℓ(α_i)}` (Phase III.2).
pub fn compute_lambda_psi(group: &SchnorrGroup, e_shares: &[u64], h_shares: &[u64]) -> LambdaPsi {
    let zq = group.zq();
    let e_sum = e_shares.iter().fold(0u64, |acc, &v| zq.add(acc, v));
    let h_sum = h_shares.iter().fold(0u64, |acc, &v| zq.add(acc, v));
    LambdaPsi {
        lambda: group.pow_z1(e_sum),
        psi: group.pow_z2(h_sum),
    }
}

/// Verifies a published `(Λ_i, Ψ_i)` against the public commitments —
/// equation (11): `Π_{ℓ ∉ excluded} Γ_{i,ℓ} = Λ_i · Ψ_i`.
///
/// With `excluded = Some(w)` this is the *second-price* variant used after
/// the winner `w`'s polynomial has been divided out (step III.4).
///
/// # Errors
///
/// Returns [`CryptoError::LambdaPsiInvalid`] when the identity fails.
pub fn verify_lambda_psi(
    group: &SchnorrGroup,
    all_commitments: &[Commitments],
    agent: usize,
    alpha_i: u64,
    pair: &LambdaPsi,
    excluded: Option<usize>,
) -> Result<(), CryptoError> {
    let zp = group.zp();
    let mut gamma_product = 1u64;
    for (l, commitments) in all_commitments.iter().enumerate() {
        if excluded == Some(l) {
            continue;
        }
        gamma_product = zp.mul(gamma_product, commitments.gamma(group, alpha_i));
    }
    if gamma_product != zp.mul(pair.lambda, pair.psi) {
        return Err(CryptoError::LambdaPsiInvalid { agent });
    }
    Ok(())
}

/// The result of a first- or second-price resolution (equation (12)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedPrice {
    /// The resolved bid value `y = σ − degree`.
    pub bid: u64,
    /// The resolved degree of the summed polynomial.
    pub degree: usize,
    /// How many share points the resolution consumed (`degree + 1`).
    pub points_used: usize,
}

/// Resolves the minimum encoded bid from published `Λ` values — the
/// distributed degree resolution of equation (12).
///
/// Scans the candidate degrees `σ − w` (ascending, i.e. bids descending
/// from `w_max`) and for each candidate `d` tests whether
/// `Π_{k=1}^{d+1} Λ_k^{ρ_k} = 1`, where `ρ_k` are the Lagrange-at-zero
/// coefficients mod `q` of the first `d + 1` pseudonyms. The first success
/// gives `deg E` and hence the minimum bid `y* = σ − deg E`.
///
/// # Errors
///
/// * [`CryptoError::LengthMismatch`] if `lambdas` and `alphas` differ in
///   length;
/// * [`CryptoError::ResolutionFailed`] if no candidate resolves — under
///   honest execution this can only happen with probability `≈ |W|/q`, so
///   it indicates a protocol violation (Theorem 4's `τ* = n` case).
pub fn resolve_min_bid(
    group: &SchnorrGroup,
    encoding: &BidEncoding,
    alphas: &[u64],
    lambdas: &[u64],
) -> Result<ResolvedPrice, CryptoError> {
    if lambdas.len() != alphas.len() {
        return Err(CryptoError::LengthMismatch {
            what: "lambda vector",
            got: lambdas.len(),
            expected: alphas.len(),
        });
    }
    let zq = group.zq();
    let zp = group.zp();
    for degree in encoding.candidate_degrees() {
        let s = degree + 1;
        let (Some(alpha_head), Some(lambda_head)) = (alphas.get(..s), lambdas.get(..s)) else {
            break;
        };
        let rho = lagrange::zero_coefficients(&zq, alpha_head)
            .map_err(|_| CryptoError::ResolutionFailed)?;
        let mut product = 1u64;
        for (&lam, &r) in lambda_head.iter().zip(&rho) {
            product = zp.mul(product, zp.pow(lam, r));
        }
        if product == 1 {
            let bid = encoding
                .bid_of_degree(degree)
                .ok_or(CryptoError::ResolutionFailed)?;
            return Ok(ResolvedPrice {
                bid,
                degree,
                points_used: s,
            });
        }
    }
    Err(CryptoError::ResolutionFailed)
}

/// Verifies one claimed `(f_ℓ(α), h_ℓ(α))` evaluation against agent `ℓ`'s
/// published `R` commitment vector — equation (9) applied to a single
/// point: `z1^{f} · z2^{h} = Φ_ℓ(α) = Π_j R_{ℓ,j}^{α^j}`.
///
/// This backs the winner-identification fallback: when crashes before
/// bidding leave fewer live share points than identification needs, the
/// winner itself supplies its polynomial's evaluations at the missing
/// pseudonyms, and every verifier binds those claims to the commitments
/// published back in Phase II.3.
///
/// # Errors
///
/// Returns [`CryptoError::DisclosureInvalid`] (naming `point_index`) when
/// the claimed pair does not match the commitment.
pub fn verify_claimed_f_point(
    group: &SchnorrGroup,
    commitments: &Commitments,
    point_index: usize,
    alpha: u64,
    f_value: u64,
    h_value: u64,
) -> Result<(), CryptoError> {
    if group.commit(f_value, h_value) != commitments.phi(group, alpha) {
        return Err(CryptoError::DisclosureInvalid { point: point_index });
    }
    Ok(())
}

/// Verifies a round of disclosed `f`-shares at one point — equation (13):
/// `z1^{F(α_k)} · Ψ_k = Π_ℓ Φ_{k,ℓ}` with `F(α_k) = Σ_ℓ f_ℓ(α_k)`.
///
/// `disclosed_f[ℓ]` is agent `ℓ`'s `f_ℓ(α_k)` as disclosed by the agent
/// holding point `α_k`; `psi_k` is that agent's published `Ψ_k`.
///
/// # Errors
///
/// Returns [`CryptoError::DisclosureInvalid`] when the aggregate identity
/// fails (some disclosed value was tampered with).
pub fn verify_f_disclosure(
    group: &SchnorrGroup,
    all_commitments: &[Commitments],
    point_index: usize,
    alpha_k: u64,
    disclosed_f: &[u64],
    psi_k: u64,
) -> Result<(), CryptoError> {
    if disclosed_f.len() != all_commitments.len() {
        return Err(CryptoError::LengthMismatch {
            what: "disclosed f-share vector",
            got: disclosed_f.len(),
            expected: all_commitments.len(),
        });
    }
    let zq = group.zq();
    let zp = group.zp();
    let f_sum = disclosed_f.iter().fold(0u64, |acc, &v| zq.add(acc, v));
    let lhs = zp.mul(group.pow_z1(f_sum), psi_k);
    let mut phi_product = 1u64;
    for commitments in all_commitments {
        phi_product = zp.mul(phi_product, commitments.phi(group, alpha_k));
    }
    if lhs != phi_product {
        return Err(CryptoError::DisclosureInvalid { point: point_index });
    }
    Ok(())
}

/// Identifies the winning agent from disclosed `f`-shares — equation (14).
///
/// The winner's `f` has degree `y* + c` (the first price plus the
/// resilience shift), so its `(y* + c + 1)`-point Lagrange interpolation at
/// zero vanishes; every loser's `f` has a strictly larger degree and does
/// not (w.h.p.). Ties are broken toward the smallest pseudonym index,
/// matching step III.3.
///
/// `f_columns[ℓ]` holds agent `ℓ`'s disclosed `f_ℓ(α_k)` for the first
/// [`BidEncoding::winner_points`] points in `alphas`.
///
/// # Errors
///
/// * [`CryptoError::LengthMismatch`] when fewer than `y* + 1` points are
///   supplied;
/// * [`CryptoError::NoWinner`] when no polynomial resolves at degree `y*`.
pub fn identify_winner(
    group: &SchnorrGroup,
    encoding: &BidEncoding,
    first_price: u64,
    alphas: &[u64],
    f_columns: &[Vec<u64>],
) -> Result<usize, CryptoError> {
    let needed = encoding.winner_points(first_price);
    if alphas.len() < needed {
        return Err(CryptoError::LengthMismatch {
            what: "winner-identification points",
            got: alphas.len(),
            expected: needed,
        });
    }
    let zq = group.zq();
    for (agent, column) in f_columns.iter().enumerate() {
        if column.len() < needed {
            return Err(CryptoError::LengthMismatch {
                what: "disclosed f-share column",
                got: column.len(),
                expected: needed,
            });
        }
        let shares: Vec<(u64, u64)> = alphas
            .iter()
            .copied()
            .zip(column.iter().copied())
            .take(needed)
            .collect();
        if let Ok(0) = lagrange::interpolate_at_zero(&zq, &shares) {
            return Ok(agent);
        }
    }
    Err(CryptoError::NoWinner)
}

/// Excludes the winner's polynomial from a published pair — step III.4,
/// equation (15): `Λ'_i = Λ_i / z1^{e_*(α_i)}`, `Ψ'_i = Ψ_i / z2^{h_*(α_i)}`,
/// where `(e_*(α_i), h_*(α_i))` are the winner's shares held by agent `i`.
///
/// # Errors
///
/// Never fails for valid group elements; an error indicates `Λ` or `Ψ` was
/// zero, which cannot happen for honestly computed values.
pub fn exclude_winner(
    group: &SchnorrGroup,
    pair: &LambdaPsi,
    winner_e_share: u64,
    winner_h_share: u64,
) -> Result<LambdaPsi, CryptoError> {
    let zp = group.zp();
    let lambda = zp
        .div(pair.lambda, group.pow_z1(winner_e_share))
        .map_err(|_| CryptoError::ResolutionFailed)?;
    let psi = zp
        .div(pair.psi, group.pow_z2(winner_h_share))
        .map_err(|_| CryptoError::ResolutionFailed)?;
    Ok(LambdaPsi { lambda, psi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomials::BidPolynomials;
    use rand::SeedableRng;

    struct Setup {
        group: SchnorrGroup,
        encoding: BidEncoding,
        alphas: Vec<u64>,
        polys: Vec<BidPolynomials>,
        commitments: Vec<Commitments>,
        pairs: Vec<LambdaPsi>,
    }

    /// Builds a fully honest auction state for the given bids.
    fn setup(bids: &[u64], seed: u64) -> Setup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let n = bids.len();
        let encoding = BidEncoding::new(n, 1).unwrap();
        let zq = group.zq();
        let alphas = zq.rand_distinct_nonzero(n, &mut rng);
        let polys: Vec<BidPolynomials> = bids
            .iter()
            .map(|&b| BidPolynomials::generate(&group, &encoding, b, &mut rng).unwrap())
            .collect();
        let commitments: Vec<Commitments> = polys
            .iter()
            .map(|p| Commitments::commit(&group, &encoding, p))
            .collect();
        let pairs: Vec<LambdaPsi> = alphas
            .iter()
            .map(|&a| {
                let e_shares: Vec<u64> = polys.iter().map(|p| p.e().eval(&zq, a)).collect();
                let h_shares: Vec<u64> = polys.iter().map(|p| p.h().eval(&zq, a)).collect();
                compute_lambda_psi(&group, &e_shares, &h_shares)
            })
            .collect();
        Setup {
            group,
            encoding,
            alphas,
            polys,
            commitments,
            pairs,
        }
    }

    #[test]
    fn published_pairs_pass_equation_11() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 7);
        for (i, pair) in s.pairs.iter().enumerate() {
            verify_lambda_psi(&s.group, &s.commitments, i, s.alphas[i], pair, None)
                .unwrap_or_else(|e| panic!("agent {i}: {e}"));
        }
    }

    #[test]
    fn tampered_lambda_fails_equation_11() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 8);
        let mut bad = s.pairs[2];
        bad.lambda = s.group.zp().mul(bad.lambda, s.group.z1());
        assert!(matches!(
            verify_lambda_psi(&s.group, &s.commitments, 2, s.alphas[2], &bad, None),
            Err(CryptoError::LambdaPsiInvalid { agent: 2 })
        ));
    }

    #[test]
    fn first_price_resolves_to_minimum_bid() {
        for (bids, expected) in [
            (vec![3u64, 1, 2, 4, 2, 3], 1u64),
            (vec![4, 4, 4, 4, 4, 4], 4),
            (vec![2, 3, 2, 3, 3], 2),
        ] {
            let s = setup(&bids, 9);
            let lambdas: Vec<u64> = s.pairs.iter().map(|p| p.lambda).collect();
            let r = resolve_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas).unwrap();
            assert_eq!(r.bid, expected, "bids {bids:?}");
            assert_eq!(r.degree, s.encoding.degree_of_bid(expected).unwrap());
            assert_eq!(r.points_used, r.degree + 1);
        }
    }

    #[test]
    fn resolution_length_mismatch_rejected() {
        let s = setup(&[1, 2, 2, 1], 10);
        let lambdas: Vec<u64> = s.pairs.iter().map(|p| p.lambda).take(2).collect();
        assert!(matches!(
            resolve_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn garbage_lambdas_fail_resolution() {
        let s = setup(&[2, 1, 2, 1], 11);
        let garbage: Vec<u64> = (0..4).map(|i| s.group.pow_z1(100 + i)).collect();
        assert!(matches!(
            resolve_min_bid(&s.group, &s.encoding, &s.alphas, &garbage),
            Err(CryptoError::ResolutionFailed)
        ));
    }

    #[test]
    fn disclosure_verifies_and_tampering_is_caught() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 12);
        let zq = s.group.zq();
        let k = 0;
        let disclosed: Vec<u64> = s
            .polys
            .iter()
            .map(|p| p.f().eval(&zq, s.alphas[k]))
            .collect();
        verify_f_disclosure(
            &s.group,
            &s.commitments,
            k,
            s.alphas[k],
            &disclosed,
            s.pairs[k].psi,
        )
        .unwrap();
        let mut tampered = disclosed;
        tampered[3] = zq.add(tampered[3], 1);
        assert!(matches!(
            verify_f_disclosure(
                &s.group,
                &s.commitments,
                k,
                s.alphas[k],
                &tampered,
                s.pairs[k].psi
            ),
            Err(CryptoError::DisclosureInvalid { point: 0 })
        ));
    }

    #[test]
    fn claimed_f_point_verifies_and_tampering_is_caught() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 19);
        let zq = s.group.zq();
        // Agent 1 proves its f/h evaluations at agent 4's pseudonym, as it
        // would if agent 4 had crashed before bidding.
        let alpha = s.alphas[4];
        let f = s.polys[1].f().eval(&zq, alpha);
        let h = s.polys[1].h().eval(&zq, alpha);
        verify_claimed_f_point(&s.group, &s.commitments[1], 4, alpha, f, h).unwrap();
        assert!(matches!(
            verify_claimed_f_point(&s.group, &s.commitments[1], 4, alpha, zq.add(f, 1), h),
            Err(CryptoError::DisclosureInvalid { point: 4 })
        ));
    }

    #[test]
    fn winner_identification_picks_lowest_bidder() {
        let bids = [3u64, 1, 2, 4, 2, 3];
        let s = setup(&bids, 13);
        let zq = s.group.zq();
        let first_price = 1u64;
        let f_columns: Vec<Vec<u64>> = s
            .polys
            .iter()
            .map(|p| s.alphas.iter().map(|&a| p.f().eval(&zq, a)).collect())
            .collect();
        let winner =
            identify_winner(&s.group, &s.encoding, first_price, &s.alphas, &f_columns).unwrap();
        assert_eq!(winner, 1);
    }

    #[test]
    fn tie_breaks_to_smallest_index() {
        let bids = [2u64, 1, 1, 2];
        let s = setup(&bids, 14);
        let zq = s.group.zq();
        let f_columns: Vec<Vec<u64>> = s
            .polys
            .iter()
            .map(|p| s.alphas.iter().map(|&a| p.f().eval(&zq, a)).collect())
            .collect();
        let winner = identify_winner(&s.group, &s.encoding, 1, &s.alphas, &f_columns).unwrap();
        assert_eq!(winner, 1, "smallest pseudonym among the tied bidders");
    }

    #[test]
    fn winner_identification_needs_enough_points() {
        let s = setup(&[2, 1, 2, 2], 15);
        let zq = s.group.zq();
        let f_columns: Vec<Vec<u64>> = s
            .polys
            .iter()
            .map(|p| s.alphas[..1].iter().map(|&a| p.f().eval(&zq, a)).collect())
            .collect();
        assert!(matches!(
            identify_winner(&s.group, &s.encoding, 1, &s.alphas[..1], &f_columns),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn second_price_resolves_after_exclusion() {
        let bids = [3u64, 1, 2, 4, 2, 3];
        let s = setup(&bids, 16);
        let zq = s.group.zq();
        let winner = 1usize;
        let excluded: Vec<LambdaPsi> = s
            .pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let e_star = s.polys[winner].e().eval(&zq, s.alphas[i]);
                let h_star = s.polys[winner].h().eval(&zq, s.alphas[i]);
                exclude_winner(&s.group, pair, e_star, h_star).unwrap()
            })
            .collect();
        // Excluded pairs still verify equation (11) without the winner.
        for (i, pair) in excluded.iter().enumerate() {
            verify_lambda_psi(&s.group, &s.commitments, i, s.alphas[i], pair, Some(winner))
                .unwrap();
        }
        let lambdas: Vec<u64> = excluded.iter().map(|p| p.lambda).collect();
        let r = resolve_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas).unwrap();
        assert_eq!(r.bid, 2, "second price");
    }

    #[test]
    fn second_price_equals_first_on_tied_minimum() {
        let bids = [1u64, 1, 2, 2];
        let s = setup(&bids, 17);
        let zq = s.group.zq();
        let winner = 0usize;
        let lambdas: Vec<u64> = s
            .pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let e_star = s.polys[winner].e().eval(&zq, s.alphas[i]);
                let h_star = s.polys[winner].h().eval(&zq, s.alphas[i]);
                exclude_winner(&s.group, pair, e_star, h_star)
                    .unwrap()
                    .lambda
            })
            .collect();
        let r = resolve_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas).unwrap();
        assert_eq!(r.bid, 1);
    }
}
