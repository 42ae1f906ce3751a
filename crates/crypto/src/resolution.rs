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
//! interpolation of `E` at zero vanishes mod `q`. [`resolve_min_bid`]
//! finds the smallest passing candidate by a search down from the top
//! candidate, on coefficients the caller derives once per point set;
//! [`scan_min_bid`], the ascending scan, is its fallback and reference.

use crate::commitments::{Commitments, FoldedCommitments};
use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use dmw_modmath::multiexp::ExponentPlan;
use dmw_modmath::{lagrange, FixedBase, SchnorrGroup};

/// A published `(Λ_i, Ψ_i)` pair (equation (10)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// equation (11): `Π_ℓ Γ_{i,ℓ} = Λ_i · Ψ_i`. `gamma` is the left-hand
/// product, the value at `α_i` ([`FoldedCommitments::eval`]) of the
/// fold of the `Q` vectors of the agents it covers.
///
/// Folding every agent but the winner `w` gives the *second-price* variant
/// used after `w`'s polynomial has been divided out (step III.4).
///
/// # Errors
///
/// Returns [`CryptoError::LambdaPsiInvalid`] when the identity fails.
pub fn verify_lambda_psi(
    group: &SchnorrGroup,
    gamma: u64,
    agent: usize,
    pair: &LambdaPsi,
) -> Result<(), CryptoError> {
    if gamma != group.zp().mul(pair.lambda, pair.psi) {
        return Err(CryptoError::LambdaPsiInvalid { agent });
    }
    Ok(())
}

/// The result of a first- or second-price resolution (equation (12)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// `points` holds the Lagrange-at-zero coefficients mod `q` of the
/// pseudonyms whose `Λ` are in `lambdas`, in the same order. Candidate
/// degree `d` tests whether `Π_{k=1}^{d+1} Λ_k^{ρ_k} = 1` over the
/// first `d + 1` points. Under honest `Λ` the test fails for every
/// `d < deg E` (but for a `1/q` accident per candidate, and never at
/// `d = deg E − 1`) and passes for every `d ≥ deg E`, so the first passing
/// candidate gives `deg E` and the minimum bid `y* = σ − c − deg E`.
///
/// The search finds that boundary from the top:
///
/// 1. It tests the top candidate first, the one with the longest prefix
///    `points` covers: bid 1 and its `n − c` points whenever at least
///    that many agents respond. Honest `Λ` always pass it. If it fails,
///    the verdict is [`scan_min_bid`]'s, so garbage or forged `Λ`
///    resolve (or fail) exactly as the ascending scan resolves them.
/// 2. It gallops toward higher bids, doubling its step after every pass
///    (bids 2, 4, 8, …), until a test fails or bid `w_max` passes.
/// 3. It bisects between the last pass and the first fail.
///
/// Each test's coefficients come from the last passing prefix by
/// [`ZeroCoefficients::remove`](lagrange::ZeroCoefficients::remove): one
/// inversion and `O(s)` multiplications per dropped point. Each term is
/// one [`PrimeField::pow`](dmw_modmath::PrimeField::pow); a `Λ ≥ p` is
/// taken mod `p`. A resolution makes about three tests when the minimum
/// bid is small and `O(log |W|)` at worst, against up to `|W|` for the
/// scan.
///
/// # Errors
///
/// * [`CryptoError::LengthMismatch`] if `lambdas` and `points` differ in
///   length;
/// * [`CryptoError::ResolutionFailed`] if no candidate resolves — under
///   honest execution this can only happen with probability `≈ |W|/q`, so
///   it indicates a protocol violation (Theorem 4's `τ* = n` case).
pub fn resolve_min_bid(
    group: &SchnorrGroup,
    encoding: &BidEncoding,
    points: &lagrange::ZeroCoefficients,
    lambdas: &[u64],
) -> Result<ResolvedPrice, CryptoError> {
    if lambdas.len() != points.len() {
        return Err(CryptoError::LengthMismatch {
            what: "lambda vector",
            got: lambdas.len(),
            expected: points.len(),
        });
    }
    let zq = group.zq();
    let zp = group.zp();
    // The candidates whose prefix `points` covers, ascending; index `i`
    // passes for every `i` at or above the true degree's index.
    let candidates: Vec<usize> = encoding
        .candidate_degrees()
        .into_iter()
        .take_while(|&degree| degree < points.len())
        .collect();
    let degree_at = |index: usize| {
        candidates
            .get(index)
            .copied()
            .ok_or(CryptoError::ResolutionFailed)
    };
    // The coefficients of candidate `degree`, shrunk from a longer prefix.
    let prefix = |from: &lagrange::ZeroCoefficients, degree: usize| {
        let mut rho = from.clone();
        while rho.len() > degree + 1 {
            rho.remove(&zq, rho.len() - 1)
                .map_err(|_| CryptoError::ResolutionFailed)?;
        }
        Ok::<_, CryptoError>(rho)
    };
    let passes = |rho: &lagrange::ZeroCoefficients| {
        let product = lambdas
            .iter()
            .zip(rho.coefficients())
            .fold(1, |acc, (&lambda, &r)| {
                zp.mul(acc, zp.pow(zp.reduce(lambda), r))
            });
        product == 1
    };
    let Some(top) = candidates.len().checked_sub(1) else {
        return Err(CryptoError::ResolutionFailed);
    };
    let mut pass = prefix(points, degree_at(top)?)?;
    if !passes(&pass) {
        return scan_min_bid(group, encoding, points.points(), lambdas);
    }
    // `hi` passes and every index below `lo` failed. The step doubles
    // while tests pass and is dropped at the first fail, which switches
    // the search from galloping to bisecting.
    let (mut lo, mut hi) = (0, top);
    let mut step = Some(1usize);
    while lo < hi {
        let probe = match step {
            Some(step) => hi.saturating_sub(step).max(lo),
            None => lo.midpoint(hi),
        };
        let rho = prefix(&pass, degree_at(probe)?)?;
        if passes(&rho) {
            (hi, pass) = (probe, rho);
            step = step.map(|step| step * 2);
        } else {
            lo = probe + 1;
            step = None;
        }
    }
    let degree = degree_at(hi)?;
    let bid = encoding
        .bid_of_degree(degree)
        .ok_or(CryptoError::ResolutionFailed)?;
    Ok(ResolvedPrice {
        bid,
        degree,
        points_used: degree + 1,
    })
}

/// Equation (12) by the ascending scan: the first passing candidate
/// degree, testing the candidates `σ − w` in ascending order (bids
/// descending from `w_max`). This is [`resolve_min_bid`]'s verdict
/// whenever its top candidate fails, and the reference its search is
/// measured against (the `false-positive` experiment counts how often
/// each resolves falsely at a small `q`).
///
/// One [`lagrange::ZeroCoefficients`] is extended across the scan, so
/// the coefficients of all candidates together cost `O(n²)`
/// multiplications and at most `n` inversions. Each `Λ_k` gets a
/// [`FixedBase`] table when the prefix first reaches it, and every later
/// candidate raises it by a fresh `ρ_k` through that table: one shared
/// accumulator per candidate, one multiplication per non-zero window
/// digit of each `ρ_k`, and no squarings. A zero, unreduced or repeated
/// pseudonym fails the resolution once the prefix reaches it.
///
/// # Errors
///
/// As [`resolve_min_bid`], with `alphas` in place of `points`.
pub fn scan_min_bid(
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
    let mut rho = lagrange::ZeroCoefficients::new();
    let mut tables: Vec<FixedBase> = Vec::with_capacity(lambdas.len());
    for degree in encoding.candidate_degrees() {
        let s = degree + 1;
        let (Some(alpha_head), Some(lambda_head)) = (alphas.get(..s), lambdas.get(..s)) else {
            break;
        };
        for &alpha in alpha_head.get(rho.len()..).unwrap_or_default() {
            rho.push(&zq, alpha)
                .map_err(|_| CryptoError::ResolutionFailed)?;
        }
        for &lambda in lambda_head.get(tables.len()..).unwrap_or_default() {
            tables.push(FixedBase::new(&zp, lambda, &zq));
        }
        let terms = tables.iter().zip(rho.coefficients().iter().copied());
        if FixedBase::product(&zp, terms) == 1 {
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
/// point: `z1^{f} · z2^{h} = Φ_ℓ(α) = Π_j R_{ℓ,j}^{α^j}`, evaluated with
/// `plan`, the [`powers_plan`](crate::commitments::powers_plan) of `α`.
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
    plan: &ExponentPlan,
    f_value: u64,
    h_value: u64,
) -> Result<(), CryptoError> {
    if plan.pow_columns(&group.zp(), &[commitments.r()]) != [group.commit(f_value, h_value)] {
        return Err(CryptoError::DisclosureInvalid { point: point_index });
    }
    Ok(())
}

/// Verifies a round of disclosed `f`-shares at one point — equation (13):
/// `z1^{F(α_k)} · Ψ_k = Π_ℓ Φ_{k,ℓ}` with `F(α_k) = Σ_ℓ f_ℓ(α_k)`, the
/// product over the agents whose `R` vectors `folded_r` holds. `phi` is
/// that product, the value of `folded_r` at `α_k`
/// ([`FoldedCommitments::eval`]).
///
/// `disclosed_f[ℓ]` is agent `ℓ`'s `f_ℓ(α_k)` as disclosed by the agent
/// holding point `α_k`, one per folded vector; `psi_k` is that agent's
/// published `Ψ_k`.
///
/// # Errors
///
/// * [`CryptoError::LengthMismatch`] unless there is one disclosed value
///   per folded vector;
/// * [`CryptoError::DisclosureInvalid`] when the aggregate identity fails
///   (some disclosed value was tampered with).
pub fn verify_f_disclosure(
    group: &SchnorrGroup,
    folded_r: &FoldedCommitments,
    phi: u64,
    point_index: usize,
    disclosed_f: &[u64],
    psi_k: u64,
) -> Result<(), CryptoError> {
    if disclosed_f.len() != folded_r.vectors() {
        return Err(CryptoError::LengthMismatch {
            what: "disclosed f-share vector",
            got: disclosed_f.len(),
            expected: folded_r.vectors(),
        });
    }
    let zq = group.zq();
    let zp = group.zp();
    let f_sum = disclosed_f.iter().fold(0u64, |acc, &v| zq.add(acc, v));
    let lhs = zp.mul(group.pow_z1(f_sum), psi_k);
    if lhs != phi {
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
/// [`BidEncoding::winner_points`] points in `alphas`. The Lagrange-at-zero
/// coefficients of those points are computed once; each column is then a
/// dot product with them.
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
    // Invalid points resolve no column, so the scan still checks every
    // column's length and then ends in `NoWinner`.
    let mut rho = lagrange::ZeroCoefficients::new();
    let points_valid = alphas
        .iter()
        .take(needed)
        .try_for_each(|&alpha| rho.push(&zq, alpha))
        .is_ok();
    for (agent, column) in f_columns.iter().enumerate() {
        if column.len() < needed {
            return Err(CryptoError::LengthMismatch {
                what: "disclosed f-share column",
                got: column.len(),
                expected: needed,
            });
        }
        if points_valid && rho.at_zero(&zq, column.iter().copied()) == 0 {
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
    use crate::commitments::powers_plan;
    use crate::commitments::tests::reference_at;
    use crate::polynomials::{BidPolynomials, SecretBid};
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
        tasks(bids, seed, 1).remove(0)
    }

    /// Builds `m` fully honest tasks with the given bids over one group
    /// and one pseudonym set.
    fn tasks(bids: &[u64], seed: u64, m: usize) -> Vec<Setup> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let n = bids.len();
        let encoding = BidEncoding::new(n, 1).unwrap();
        let zq = group.zq();
        let alphas = zq.rand_distinct_nonzero(n, &mut rng);
        (0..m)
            .map(|_| {
                let polys: Vec<BidPolynomials> = bids
                    .iter()
                    .map(|&b| {
                        BidPolynomials::generate(&group, &encoding, &SecretBid::new(b), &mut rng)
                            .unwrap()
                    })
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
                    group: group.clone(),
                    encoding,
                    alphas: alphas.clone(),
                    polys,
                    commitments,
                    pairs,
                }
            })
            .collect()
    }

    impl Setup {
        /// The Lagrange-at-zero coefficients of every pseudonym.
        fn points(&self) -> lagrange::ZeroCoefficients {
            points_of(&self.group, &self.alphas).unwrap()
        }

        fn lambdas(&self) -> Vec<u64> {
            self.pairs.iter().map(|p| p.lambda).collect()
        }
    }

    /// The coefficients of `alphas`, or `None` if one of them is zero,
    /// unreduced or repeated.
    fn points_of(group: &SchnorrGroup, alphas: &[u64]) -> Option<lagrange::ZeroCoefficients> {
        lagrange::ZeroCoefficients::from_points(&group.zq(), alphas).ok()
    }

    /// The `Q` vectors of every agent in `commitments` but `excluded`.
    fn fold_q(
        s: &Setup,
        commitments: &[Commitments],
        excluded: Option<usize>,
    ) -> FoldedCommitments {
        let included = commitments
            .iter()
            .enumerate()
            .filter(|&(l, _)| excluded != Some(l))
            .map(|(_, c)| c);
        FoldedCommitments::q(&s.group, included)
    }

    /// `folded`'s value at `alpha`, by a one-column plan.
    fn eval(s: &Setup, folded: &FoldedCommitments, alpha: u64) -> u64 {
        let plan = powers_plan(&s.group, alpha, s.encoding.sigma());
        FoldedCommitments::eval(&s.group, &plan, &[folded])[0]
    }

    #[test]
    fn published_pairs_pass_equation_11() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 7);
        let folded = fold_q(&s, &s.commitments, None);
        for (i, pair) in s.pairs.iter().enumerate() {
            verify_lambda_psi(&s.group, eval(&s, &folded, s.alphas[i]), i, pair)
                .unwrap_or_else(|e| panic!("agent {i}: {e}"));
        }
    }

    #[test]
    fn tampered_lambda_fails_equation_11() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 8);
        let mut bad = s.pairs[2];
        bad.lambda = s.group.zp().mul(bad.lambda, s.group.z1());
        let gamma = eval(&s, &fold_q(&s, &s.commitments, None), s.alphas[2]);
        assert!(matches!(
            verify_lambda_psi(&s.group, gamma, 2, &bad),
            Err(CryptoError::LambdaPsiInvalid { agent: 2 })
        ));
    }

    /// Equation (11) evaluated the unfolded way: one `Γ` per commitment,
    /// each by the naive reference product.
    fn reference_lambda_psi_holds(
        s: &Setup,
        commitments: &[Commitments],
        alpha: u64,
        pair: &LambdaPsi,
        excluded: Option<usize>,
    ) -> bool {
        let zp = s.group.zp();
        let gammas = commitments
            .iter()
            .enumerate()
            .filter(|&(l, _)| excluded != Some(l))
            .fold(1, |acc, (_, c)| {
                zp.mul(acc, reference_at(&s.group, alpha, c.q()))
            });
        gammas == zp.mul(pair.lambda, pair.psi)
    }

    /// Equation (13) evaluated the unfolded way: one `Φ` per commitment,
    /// each by the naive reference product.
    fn reference_disclosure_holds(
        s: &Setup,
        commitments: &[Commitments],
        alpha: u64,
        disclosed: &[u64],
        psi: u64,
    ) -> bool {
        let (zp, zq) = (s.group.zp(), s.group.zq());
        let f_sum = disclosed.iter().fold(0, |acc, &v| zq.add(acc, v));
        let phis = commitments.iter().fold(1, |acc, c| {
            zp.mul(acc, reference_at(&s.group, alpha, c.r()))
        });
        phis == zp.mul(s.group.pow_z1(f_sum), psi)
    }

    /// `s`'s commitments with entry `index` of one agent's `Q` or `R`
    /// vector multiplied by `z1`.
    fn tamper_vector(s: &Setup, agent: usize, index: usize, vector: char) -> Vec<Commitments> {
        let zp = s.group.zp();
        let mut out = s.commitments.clone();
        let c = &out[agent];
        let (mut q, mut r) = (c.q().to_vec(), c.r().to_vec());
        let entry = if vector == 'q' {
            &mut q[index]
        } else {
            &mut r[index]
        };
        *entry = zp.mul(*entry, s.group.z1());
        out[agent] = Commitments::from_parts(&s.encoding, c.o().to_vec(), q, r).unwrap();
        out
    }

    /// Eq. (11) at every publisher over `m` task folds, one plan per
    /// publisher, against the unfolded reference. Each `m` runs three
    /// variants: honest, one tampered published pair (last task,
    /// publisher `m − 1`), and one tampered `Q` entry (last task, agent 2).
    #[test]
    fn folded_lambda_psi_check_matches_per_commitment_gammas() {
        let bids = [3, 1, 2, 4, 2, 3];
        let n = bids.len();
        for m in 1..=4 {
            let tasks = tasks(&bids, 24, m);
            let (group, zq) = (&tasks[0].group, tasks[0].group.zq());
            let bad = (m - 1, m - 1);
            let mut accepted = 0;
            for variant in 0..3 {
                let commitments: Vec<Vec<Commitments>> = tasks
                    .iter()
                    .enumerate()
                    .map(|(t, s)| match variant {
                        2 if t == bad.0 => tamper_vector(s, 2, 1, 'q'),
                        _ => s.commitments.clone(),
                    })
                    .collect();
                for excluded in std::iter::once(None).chain((0..n).map(Some)) {
                    let folds: Vec<FoldedCommitments> = tasks
                        .iter()
                        .zip(&commitments)
                        .map(|(s, c)| fold_q(s, c, excluded))
                        .collect();
                    let folds: Vec<&FoldedCommitments> = folds.iter().collect();
                    for (i, &alpha) in tasks[0].alphas.iter().enumerate() {
                        let plan = powers_plan(group, alpha, tasks[0].encoding.sigma());
                        let gammas = FoldedCommitments::eval(group, &plan, &folds);
                        assert_eq!(gammas.len(), m);
                        for (t, (s, &gamma)) in tasks.iter().zip(&gammas).enumerate() {
                            // The pair a verifier sees after the excluded
                            // agent's shares were divided out (step III.4),
                            // or the published pair.
                            let mut pair = match excluded {
                                None => s.pairs[i],
                                Some(w) => {
                                    let e = s.polys[w].e().eval(&zq, alpha);
                                    let h = s.polys[w].h().eval(&zq, alpha);
                                    exclude_winner(group, &s.pairs[i], e, h).unwrap()
                                }
                            };
                            if variant == 1 && (t, i) == bad {
                                pair.psi = group.zp().mul(pair.psi, group.z2());
                            }
                            let folded = verify_lambda_psi(group, gamma, i, &pair).is_ok();
                            let reference = reference_lambda_psi_holds(
                                s,
                                &commitments[t],
                                alpha,
                                &pair,
                                excluded,
                            );
                            assert_eq!(
                                folded, reference,
                                "m {m}, variant {variant}, task {t}, agent {i}, excluded {excluded:?}"
                            );
                            accepted += usize::from(folded);
                        }
                    }
                }
            }
            // Honest pairs pass with and without exclusion. The tampered
            // pair fails everywhere at its (task, publisher); the tampered
            // Q fails its task at every publisher unless agent 2 is
            // excluded.
            assert_eq!(accepted, 3 * m * n * (n + 1) - (n + 1) - n * n, "m {m}");
        }
    }

    /// Eq. (13) at every discloser over `m` task folds, one plan per
    /// discloser, against the unfolded reference. Each `m` runs three
    /// variants: honest, one tampered disclosed value (last task,
    /// discloser `m − 1`), and one tampered `R` entry (last task, agent 4).
    #[test]
    fn folded_disclosure_check_matches_per_commitment_phis() {
        let bids = [3, 1, 2, 4, 2, 3];
        let n = bids.len();
        for m in 1..=4 {
            let tasks = tasks(&bids, 25, m);
            let (group, zq) = (&tasks[0].group, tasks[0].group.zq());
            let bad = (m - 1, m - 1);
            let mut accepted = 0;
            for variant in 0..3 {
                let commitments: Vec<Vec<Commitments>> = tasks
                    .iter()
                    .enumerate()
                    .map(|(t, s)| match variant {
                        2 if t == bad.0 => tamper_vector(s, 4, 0, 'r'),
                        _ => s.commitments.clone(),
                    })
                    .collect();
                let folds: Vec<FoldedCommitments> = commitments
                    .iter()
                    .map(|c| FoldedCommitments::r(group, c))
                    .collect();
                let fold_refs: Vec<&FoldedCommitments> = folds.iter().collect();
                for (k, &alpha) in tasks[0].alphas.iter().enumerate() {
                    let plan = powers_plan(group, alpha, tasks[0].encoding.sigma());
                    let phis = FoldedCommitments::eval(group, &plan, &fold_refs);
                    assert_eq!(phis.len(), m);
                    for (t, s) in tasks.iter().enumerate() {
                        let mut disclosed: Vec<u64> =
                            s.polys.iter().map(|p| p.f().eval(&zq, alpha)).collect();
                        if variant == 1 && (t, k) == bad {
                            disclosed[1] = zq.add(disclosed[1], 1);
                        }
                        let psi = s.pairs[k].psi;
                        let folded =
                            verify_f_disclosure(group, &folds[t], phis[t], k, &disclosed, psi)
                                .is_ok();
                        let reference =
                            reference_disclosure_holds(s, &commitments[t], alpha, &disclosed, psi);
                        assert_eq!(
                            folded, reference,
                            "m {m}, variant {variant}, task {t}, point {k}"
                        );
                        accepted += usize::from(folded);
                    }
                }
            }
            // Only the tampered (task, discloser) value and the tampered
            // task's checks at every point fail.
            assert_eq!(accepted, 3 * m * n - 1 - n, "m {m}");
        }
    }

    #[test]
    fn first_price_resolves_to_minimum_bid() {
        for (bids, expected) in [
            (vec![3u64, 1, 2, 4, 2, 3], 1u64),
            (vec![4, 4, 4, 4, 4, 4], 4),
            (vec![2, 3, 2, 3, 3], 2),
        ] {
            let s = setup(&bids, 9);
            let r = resolve_min_bid(&s.group, &s.encoding, &s.points(), &s.lambdas()).unwrap();
            assert_eq!(r.bid, expected, "bids {bids:?}");
            assert_eq!(r.degree, s.encoding.degree_of_bid(expected).unwrap());
            assert_eq!(r.points_used, r.degree + 1);
        }
    }

    #[test]
    fn full_scan_resolution_inverts_at_most_once_per_point() {
        let n = 64usize;
        // Bid 1 is the minimum, so the scan runs through every candidate.
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "a permutation of the bids 1..=62, not residues"
        )]
        let bids: Vec<u64> = (0..n as u64).map(|i| 1 + (i * 7) % 62).collect();
        let s = setup(&bids, 20);
        let lambdas: Vec<u64> = s.pairs.iter().map(|p| p.lambda).collect();
        let before = dmw_modmath::ops::current_ops();
        let r = scan_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas).unwrap();
        let cost = dmw_modmath::ops::current_ops().since(&before);
        assert_eq!(r.bid, 1);
        assert_eq!(r.points_used, n - 1, "full scan");
        assert!(
            cost.inv <= n as u64,
            "{} inversions for one resolution at n = {n}",
            cost.inv
        );
    }

    #[test]
    fn bad_point_beyond_the_resolving_prefix_raises_no_error() {
        let s = setup(&[4, 4, 4, 4, 4, 4], 23);
        let lambdas: Vec<u64> = s.pairs.iter().map(|p| p.lambda).collect();
        let mut alphas = s.alphas.clone();
        alphas[5] = 0;
        let r = scan_min_bid(&s.group, &s.encoding, &alphas, &lambdas).unwrap();
        assert_eq!((r.bid, r.points_used), (4, 2));
        // Inside the prefix the same point fails the resolution.
        alphas[1] = 0;
        assert!(matches!(
            scan_min_bid(&s.group, &s.encoding, &alphas, &lambdas),
            Err(CryptoError::ResolutionFailed)
        ));
    }

    /// Equation (12) the pre-table way: the prefix's coefficients from
    /// scratch and one plain `zp.pow` per term. A `Λ ≥ p` is taken mod `p`,
    /// as the Montgomery ladder does with an unreduced base.
    fn reference_min_bid(
        group: &SchnorrGroup,
        encoding: &BidEncoding,
        alphas: &[u64],
        lambdas: &[u64],
    ) -> Result<ResolvedPrice, CryptoError> {
        let (zp, zq) = (group.zp(), group.zq());
        for degree in encoding.candidate_degrees() {
            let s = degree + 1;
            if s > alphas.len() {
                break;
            }
            let rho = lagrange::zero_coefficients(&zq, &alphas[..s])
                .map_err(|_| CryptoError::ResolutionFailed)?;
            let product = lambdas[..s]
                .iter()
                .zip(&rho)
                .fold(1, |acc, (&lam, &r)| zp.mul(acc, zp.pow(zp.reduce(lam), r)));
            if product == 1 {
                let bid = encoding.bid_of_degree(degree).unwrap();
                return Ok(ResolvedPrice {
                    bid,
                    degree,
                    points_used: s,
                });
            }
        }
        Err(CryptoError::ResolutionFailed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        #[test]
        fn table_scan_matches_per_term_pow_reference(
            seed in 0u64..10_000,
            n in 3usize..9,
            lambda_case in 0usize..5,
            alpha_case in 0usize..3,
            at in 0usize..9,
        ) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w_max = (n - 2) as u64;
            let bids: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=w_max)).collect();
            let s = setup(&bids, seed);
            #[expect(clippy::integer_division_remainder_used, reason = "an agent index")]
            let (p, at) = (s.group.p(), at % n);
            let mut lambdas: Vec<u64> = s.pairs.iter().map(|pair| pair.lambda).collect();
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "builds the unreduced Λ + p and near-2^64 inputs under test"
            )]
            match lambda_case {
                0 => {}
                // Garbage: every Λ an unrelated subgroup element.
                1 => lambdas.iter_mut().for_each(|l| *l = s.group.pow_z1(rng.gen())),
                2 => lambdas[at] = 0,
                3 => lambdas[at] += p,
                _ => lambdas[at] = u64::MAX - rng.gen_range(0..16u64),
            }
            let mut alphas = s.alphas.clone();
            #[expect(clippy::integer_division_remainder_used, reason = "an agent index")]
            match alpha_case {
                0 => {}
                1 => alphas[at] = 0,
                _ => alphas[at] = alphas[(at + 1) % n],
            }
            // A zero or repeated pseudonym cannot enter a coefficient set,
            // so only the scan ever meets one.
            let fast = match points_of(&s.group, &alphas) {
                Some(points) => resolve_min_bid(&s.group, &s.encoding, &points, &lambdas),
                None => scan_min_bid(&s.group, &s.encoding, &alphas, &lambdas),
            };
            let reference = reference_min_bid(&s.group, &s.encoding, &alphas, &lambdas);
            proptest::prop_assert_eq!(fast, reference, "bids {:?}", bids);
        }
    }

    /// How a parity or cost test draws its bids from `W = 1..=w_max`.
    #[derive(Clone, Copy, Debug)]
    enum Bids {
        Uniform,
        UpperHalf,
        AllMax,
        /// Uniform, but agent 0 bids 1: the scan's longest walk.
        LowestOne,
    }

    /// The published `Λ` of `n` honest agents over the default 48/24-bit
    /// group, and the coefficients of their pseudonyms: every agent's
    /// (`excluded = None`), or every agent's but the first lowest
    /// bidder's, as the second price sees them after step III.4.
    fn honest_lambdas(
        n: usize,
        faults: usize,
        bids: Bids,
        excluded: bool,
        seed: u64,
    ) -> (
        SchnorrGroup,
        BidEncoding,
        lagrange::ZeroCoefficients,
        Vec<u64>,
    ) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = SchnorrGroup::generate(48, 24, &mut rng).unwrap();
        let encoding = BidEncoding::new(n, faults).unwrap();
        let zq = group.zq();
        let w_max = encoding.w_max();
        let bids: Vec<u64> = (0..n)
            .map(|l| match bids {
                Bids::LowestOne if l == 0 => 1,
                Bids::Uniform | Bids::LowestOne => rng.gen_range(1..=w_max),
                Bids::UpperHalf => rng.gen_range(w_max.div_ceil(2)..=w_max),
                Bids::AllMax => w_max,
            })
            .collect();
        let winner = (0..n).min_by_key(|&l| bids[l]).unwrap();
        let polys: Vec<BidPolynomials> = bids
            .iter()
            .enumerate()
            .filter(|&(l, _)| !(excluded && l == winner))
            .map(|(_, &b)| {
                BidPolynomials::generate(&group, &encoding, &SecretBid::new(b), &mut rng).unwrap()
            })
            .collect();
        let alphas = zq.rand_distinct_nonzero(n, &mut rng);
        let lambdas = alphas
            .iter()
            .map(|&a| {
                let e_sum = polys
                    .iter()
                    .fold(0, |acc, p| zq.add(acc, p.e().eval(&zq, a)));
                group.pow_z1(e_sum)
            })
            .collect();
        let points = points_of(&group, &alphas).unwrap();
        (group, encoding, points, lambdas)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn search_matches_the_reference_on_honest_inputs(
            seed in 0u64..10_000,
            n in 3usize..=64,
            faults in 0usize..3,
            bids in 0usize..3,
            excluded in proptest::bool::ANY,
        ) {
            let faults = faults.min(n - 2);
            let bids = [Bids::Uniform, Bids::UpperHalf, Bids::AllMax][bids];
            let (group, encoding, points, lambdas) =
                honest_lambdas(n, faults, bids, excluded, seed);
            let search = resolve_min_bid(&group, &encoding, &points, &lambdas);
            let reference = reference_min_bid(&group, &encoding, points.points(), &lambdas);
            proptest::prop_assert!(search.is_ok());
            proptest::prop_assert_eq!(search, reference, "{:?}", bids);
        }
    }

    /// Multiplication equivalents (an inversion priced as one
    /// multiplication) of one resolution.
    fn cost(resolve: impl FnOnce() -> Result<ResolvedPrice, CryptoError>) -> u64 {
        let before = dmw_modmath::ops::current_ops();
        resolve().unwrap();
        dmw_modmath::ops::current_ops()
            .since(&before)
            .mul_equivalents()
    }

    #[test]
    fn search_costs_a_third_of_the_scan_on_uniform_bids_and_never_more_than_a_full_scan() {
        let n = 64;
        let (mut search, mut scan) = (0, 0);
        for seed in 0..8 {
            for excluded in [false, true] {
                let (group, encoding, points, lambdas) =
                    honest_lambdas(n, 1, Bids::Uniform, excluded, seed);
                search += cost(|| resolve_min_bid(&group, &encoding, &points, &lambdas));
                scan += cost(|| scan_min_bid(&group, &encoding, points.points(), &lambdas));
            }
        }
        assert!(
            3 * search <= scan,
            "uniform bids: search {search} vs scan {scan} multiplications"
        );
        // All bids w_max is the search's longest walk and the scan's
        // shortest; the scan's longest is a minimum bid of 1.
        let (group, encoding, points, lambdas) = honest_lambdas(n, 1, Bids::AllMax, false, 1);
        let worst_search = cost(|| resolve_min_bid(&group, &encoding, &points, &lambdas));
        let (group, encoding, points, lambdas) = honest_lambdas(n, 1, Bids::LowestOne, false, 1);
        let full_scan = cost(|| scan_min_bid(&group, &encoding, points.points(), &lambdas));
        assert!(
            worst_search <= full_scan,
            "all w_max: search {worst_search} vs a bid-1 scan {full_scan}"
        );
    }

    /// The rushed-`Λ` forgery: an agent that publishes last picks
    /// `Λ_0' = (Π_{0<k<s} Λ_k^{ρ_k})^{−1/ρ_0}`, which makes the test at
    /// prefix `s` pass. Equation (11) cannot see it (the forger fits its
    /// `Ψ` to the commitments), and the search does not change its
    /// outcome: the top candidate fails, so the verdict is the scan's.
    #[test]
    fn rushed_lambda_forgery_resolves_as_the_scan_does() {
        let bids = [3u64, 5, 6, 6, 5, 4, 6, 6];
        let target = 4;
        let mut forged_prices = 0;
        for seed in 0..20 {
            let s = setup(&bids, seed);
            let (zp, zq) = (s.group.zp(), s.group.zq());
            let prefix = s.encoding.degree_of_bid(target).unwrap() + 1;
            let rho = lagrange::zero_coefficients(&zq, &s.alphas[..prefix]).unwrap();
            let mut lambdas = s.lambdas();
            let others = (1..prefix).fold(1, |acc, k| zp.mul(acc, zp.pow(lambdas[k], rho[k])));
            lambdas[0] = zp.pow(others, zq.neg(zq.inv(rho[0]).unwrap()));
            let search = resolve_min_bid(&s.group, &s.encoding, &s.points(), &lambdas);
            let scan = scan_min_bid(&s.group, &s.encoding, &s.alphas, &lambdas);
            assert_eq!(search, scan, "seed {seed}");
            forged_prices += usize::from(search.map(|r| r.bid) == Ok(target));
        }
        // The gap stays open: every forgery raises the price from 3 to 4.
        assert_eq!(forged_prices, 20);
    }

    #[test]
    fn resolution_length_mismatch_rejected() {
        let s = setup(&[1, 2, 2, 1], 10);
        let lambdas: Vec<u64> = s.pairs.iter().map(|p| p.lambda).take(2).collect();
        assert!(matches!(
            resolve_min_bid(&s.group, &s.encoding, &s.points(), &lambdas),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn garbage_lambdas_fail_resolution() {
        let s = setup(&[2, 1, 2, 1], 11);
        let garbage: Vec<u64> = (0..4).map(|i| s.group.pow_z1(100 + i)).collect();
        assert!(matches!(
            resolve_min_bid(&s.group, &s.encoding, &s.points(), &garbage),
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
        let folded_r = FoldedCommitments::r(&s.group, &s.commitments);
        let phi = eval(&s, &folded_r, s.alphas[k]);
        let psi = s.pairs[k].psi;
        verify_f_disclosure(&s.group, &folded_r, phi, k, &disclosed, psi).unwrap();
        let mut tampered = disclosed;
        tampered[3] = zq.add(tampered[3], 1);
        assert!(matches!(
            verify_f_disclosure(&s.group, &folded_r, phi, k, &tampered, psi),
            Err(CryptoError::DisclosureInvalid { point: 0 })
        ));
        // One disclosed value per folded vector.
        assert!(matches!(
            verify_f_disclosure(&s.group, &folded_r, phi, k, &tampered[1..], psi),
            Err(CryptoError::LengthMismatch {
                got: 5,
                expected: 6,
                ..
            })
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
        let plan = powers_plan(&s.group, alpha, s.encoding.sigma());
        verify_claimed_f_point(&s.group, &s.commitments[1], 4, &plan, f, h).unwrap();
        assert!(matches!(
            verify_claimed_f_point(&s.group, &s.commitments[1], 4, &plan, zq.add(f, 1), h),
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
    fn winner_identification_inversions_do_not_grow_with_columns() {
        let bids = [3u64, 2, 4, 3, 2, 1];
        let s = setup(&bids, 21);
        let zq = s.group.zq();
        let f_columns: Vec<Vec<u64>> = s
            .polys
            .iter()
            .map(|p| s.alphas.iter().map(|&a| p.f().eval(&zq, a)).collect())
            .collect();
        let inversions: Vec<u64> = (1..=f_columns.len())
            .map(|columns| {
                let before = dmw_modmath::ops::current_ops();
                let verdict =
                    identify_winner(&s.group, &s.encoding, 1, &s.alphas, &f_columns[..columns]);
                let winner = (columns == f_columns.len()).then_some(5);
                assert_eq!(verdict.ok(), winner, "{columns} columns");
                dmw_modmath::ops::current_ops().since(&before).inv
            })
            .collect();
        assert!(
            inversions.iter().all(|&inv| inv == inversions[0]),
            "inversions by column count: {inversions:?}"
        );
    }

    #[test]
    fn winner_identification_on_duplicate_points_finds_no_winner() {
        let s = setup(&[3, 1, 2, 4, 2, 3], 22);
        let zq = s.group.zq();
        let f_columns: Vec<Vec<u64>> = s
            .polys
            .iter()
            .map(|p| s.alphas.iter().map(|&a| p.f().eval(&zq, a)).collect())
            .collect();
        let mut alphas = s.alphas.clone();
        alphas[1] = alphas[0];
        assert!(matches!(
            identify_winner(&s.group, &s.encoding, 1, &alphas, &f_columns),
            Err(CryptoError::NoWinner)
        ));
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
        let folded = fold_q(&s, &s.commitments, Some(winner));
        for (i, pair) in excluded.iter().enumerate() {
            verify_lambda_psi(&s.group, eval(&s, &folded, s.alphas[i]), i, pair).unwrap();
        }
        let lambdas: Vec<u64> = excluded.iter().map(|p| p.lambda).collect();
        let r = resolve_min_bid(&s.group, &s.encoding, &s.points(), &lambdas).unwrap();
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
        let r = resolve_min_bid(&s.group, &s.encoding, &s.points(), &lambdas).unwrap();
        assert_eq!(r.bid, 1);
    }
}
