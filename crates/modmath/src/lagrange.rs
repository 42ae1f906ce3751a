//! Lagrange interpolation at zero and polynomial degree resolution
//! (Section 2.4 of the paper).
//!
//! Given shares `(α_k, f(α_k))` of a polynomial `f` with **zero constant
//! term**, the degree of `f` is recovered by finding the smallest number of
//! shares `s` whose Lagrange interpolation at zero evaluates to `f(0) = 0`:
//! with `s` points the interpolant at 0 equals `f(0)` exactly when
//! `deg f ≤ s − 1`, and differs except with probability `1/q` otherwise
//! (the "mistaken success" probability the paper quotes). The resolved
//! degree is `s − 1`.
//!
//! > **Note on the paper's convention.** Definition 11 states that `s = d`
//! > points always satisfy `f^(d)(0) = f(0)` for a degree-`d` polynomial.
//! > Standard interpolation requires `d + 1` points; this module implements
//! > the consistent `d + 1` convention throughout (see DESIGN.md,
//! > "Deliberate clarifications"). The `false-positive` experiment measures
//! > the `≈ 1/q` accidental-success probability.
//!
//! Two evaluation strategies are provided and tested equal:
//! * [`interpolate_at_zero`] — the textbook basis-polynomial formula of
//!   Definition 11 / equation (2);
//! * [`interpolate_at_zero_steps`] — the paper's three-step `Θ(s²)`
//!   algorithm (`ψ_k`, `φ(0)`, `Σ ψ_k / α_k`) from \[14\].
//!
//! The *distributed* variant used by DMW operates in the exponent: each
//! agent publishes `Λ_k = z1^{E(α_k)}` and anyone checks
//! `Π Λ_k^{ρ_k} = 1` (equation (12)). [`zero_coefficients`] computes the
//! `ρ_k` for that check.

use crate::error::ModMathError;
use crate::field::PrimeField;

/// Computes the Lagrange basis coefficients at zero,
/// `ρ_k = Π_{i≠k} α_i / (α_i − α_k)`, for the given pairwise-distinct
/// non-zero points.
///
/// These are the exponents applied to the published `Λ_k` values in
/// equation (12) of the paper (reduced mod `q`, the generator order).
///
/// # Errors
///
/// * [`ModMathError::EmptyInterpolation`] if `points` is empty.
/// * [`ModMathError::DuplicatePoint`] if two points coincide.
/// * [`ModMathError::OutOfRange`] if a point is zero or not reduced.
pub fn zero_coefficients(field: &PrimeField, points: &[u64]) -> Result<Vec<u64>, ModMathError> {
    if points.is_empty() {
        return Err(ModMathError::EmptyInterpolation);
    }
    for (i, &a) in points.iter().enumerate() {
        if a == 0 || !field.contains(a) {
            return Err(ModMathError::OutOfRange {
                value: a,
                modulus: field.modulus(),
            });
        }
        if points.get(i + 1..).is_some_and(|tail| tail.contains(&a)) {
            return Err(ModMathError::DuplicatePoint { point: a });
        }
    }
    let mut coeffs = Vec::with_capacity(points.len());
    for (k, &ak) in points.iter().enumerate() {
        let mut num = 1u64;
        let mut den = 1u64;
        for (i, &ai) in points.iter().enumerate() {
            if i == k {
                continue;
            }
            num = field.mul(num, ai);
            den = field.mul(den, field.sub(ai, ak));
        }
        // `den` is a product of differences of distinct points, hence
        // nonzero, so `div` cannot fail; propagate rather than panic anyway.
        coeffs.push(field.div(num, den)?);
    }
    Ok(coeffs)
}

/// Interpolates `f(0)` from shares `(α_k, f(α_k))` using the basis-polynomial
/// formula of Definition 11. The result equals the true `f(0)` iff
/// `deg f ≤ s − 1` where `s = shares.len()` (up to the `1/q` accident).
///
/// # Errors
///
/// Propagates the validation errors of [`zero_coefficients`].
///
/// # Example
/// ```
/// use dmw_modmath::{PrimeField, Poly, lagrange};
///
/// let f = PrimeField::new(101)?;
/// let p = Poly::from_coeffs(&f, vec![42, 1, 1]); // degree 2
/// let shares: Vec<(u64, u64)> = (1..=3).map(|a| (a, p.eval(&f, a))).collect();
/// assert_eq!(lagrange::interpolate_at_zero(&f, &shares)?, 42);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn interpolate_at_zero(field: &PrimeField, shares: &[(u64, u64)]) -> Result<u64, ModMathError> {
    let points: Vec<u64> = shares.iter().map(|&(a, _)| a).collect();
    let coeffs = zero_coefficients(field, &points)?;
    let mut acc = 0u64;
    for (&(_, v), &rho) in shares.iter().zip(&coeffs) {
        acc = field.add(acc, field.mul(v, rho));
    }
    Ok(acc)
}

/// The paper's three-step `Θ(s²)` algorithm for `f^(s)(0)` (Section 2.4,
/// citing \[14\]):
///
/// 1. `ψ_k = f(α_k) / Π_{i≠k}(α_i − α_k)`
/// 2. `φ(0) = Π_k α_k`
/// 3. `f^(s)(0) = φ(0) · Σ_k ψ_k / α_k`
///
/// Produces exactly the same value as [`interpolate_at_zero`]; kept separate
/// (and tested equal) because the paper's complexity analysis refers to this
/// formulation.
///
/// # Errors
///
/// Same conditions as [`interpolate_at_zero`].
pub fn interpolate_at_zero_steps(
    field: &PrimeField,
    shares: &[(u64, u64)],
) -> Result<u64, ModMathError> {
    if shares.is_empty() {
        return Err(ModMathError::EmptyInterpolation);
    }
    let points: Vec<u64> = shares.iter().map(|&(a, _)| a).collect();
    for (i, &a) in points.iter().enumerate() {
        if a == 0 || !field.contains(a) {
            return Err(ModMathError::OutOfRange {
                value: a,
                modulus: field.modulus(),
            });
        }
        if points.get(i + 1..).is_some_and(|tail| tail.contains(&a)) {
            return Err(ModMathError::DuplicatePoint { point: a });
        }
    }
    // Step 1: psi_k.
    let mut psi = Vec::with_capacity(shares.len());
    for (k, &(ak, vk)) in shares.iter().enumerate() {
        let mut den = 1u64;
        for (i, &ai) in points.iter().enumerate() {
            if i == k {
                continue;
            }
            den = field.mul(den, field.sub(ai, ak));
        }
        // Distinct validated points make `den` nonzero.
        psi.push(field.div(vk, den)?);
    }
    // Step 2: phi(0) = prod alpha_k.
    let mut phi = 1u64;
    for &a in &points {
        phi = field.mul(phi, a);
    }
    // Step 3: phi(0) * sum psi_k / alpha_k.
    let mut sum = 0u64;
    for (&(ak, _), &pk) in shares.iter().zip(&psi) {
        // Points were validated nonzero above.
        sum = field.add(sum, field.div(pk, ak)?);
    }
    Ok(field.mul(phi, sum))
}

/// Resolves the degree of a zero-constant-term polynomial from its shares:
/// returns the smallest `s − 1` such that the `s`-share interpolation at
/// zero vanishes, scanning `s = 1, 2, …`. Returns `None` if no prefix of the
/// shares resolves (i.e. `deg f ≥ shares.len()`, or the shares are
/// inconsistent).
///
/// For an honest degree-`d` polynomial this returns `Some(d)` whenever at
/// least `d + 1` shares are supplied, except for an `O(s/q)` chance of
/// resolving early (measured by the `false-positive` experiment).
///
/// # Errors
///
/// Propagates validation errors (duplicate or zero points).
///
/// # Example
/// ```
/// use dmw_modmath::{PrimeField, Poly, lagrange};
/// use rand::SeedableRng;
///
/// let f = PrimeField::new(1031)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let p = Poly::random_zero_constant(&f, 4, &mut rng);
/// let shares: Vec<(u64, u64)> = (1..=6).map(|a| (a, p.eval(&f, a))).collect();
/// assert_eq!(lagrange::resolve_zero_degree(&f, &shares), Some(4));
/// // Too few shares: cannot resolve.
/// assert_eq!(lagrange::resolve_zero_degree(&f, &shares[..4]), None);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn resolve_zero_degree(field: &PrimeField, shares: &[(u64, u64)]) -> Option<usize> {
    for s in 1..=shares.len() {
        let prefix = shares.get(..s)?;
        match interpolate_at_zero(field, prefix) {
            Ok(0) => return Some(s - 1),
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
    None
}

/// Like [`resolve_zero_degree`], but only tests the candidate degrees in
/// `candidates` (ascending): the protocol restricts bids to the discrete set
/// `W`, so only degrees `σ − w, w ∈ W` can occur (equation (12) scans
/// exactly that set).
pub fn resolve_zero_degree_among(
    field: &PrimeField,
    shares: &[(u64, u64)],
    candidates: &[usize],
) -> Option<usize> {
    for &d in candidates {
        let s = d + 1;
        let prefix = shares.get(..s)?;
        if let Ok(0) = interpolate_at_zero(field, prefix) {
            return Some(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn field() -> PrimeField {
        PrimeField::new(1031).unwrap()
    }

    fn shares_of(p: &Poly, f: &PrimeField, n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|a| (a, p.eval(f, a))).collect()
    }

    #[test]
    fn zero_coefficients_sum_property() {
        // Interpolating the constant polynomial 1 at zero gives 1, so the
        // rho_k must sum to 1.
        let f = field();
        let coeffs = zero_coefficients(&f, &[3, 7, 11, 19]).unwrap();
        let sum = coeffs.iter().fold(0, |acc, &c| f.add(acc, c));
        assert_eq!(sum, 1);
    }

    #[test]
    fn zero_coefficients_validation() {
        let f = field();
        assert_eq!(
            zero_coefficients(&f, &[]),
            Err(ModMathError::EmptyInterpolation)
        );
        assert_eq!(
            zero_coefficients(&f, &[1, 2, 1]),
            Err(ModMathError::DuplicatePoint { point: 1 })
        );
        assert!(matches!(
            zero_coefficients(&f, &[0, 2]),
            Err(ModMathError::OutOfRange { .. })
        ));
        assert!(matches!(
            zero_coefficients(&f, &[1, 2000]),
            Err(ModMathError::OutOfRange { .. })
        ));
    }

    #[test]
    fn interpolation_recovers_constant_term() {
        let f = field();
        let p = Poly::from_coeffs(&f, vec![77, 3, 0, 9]); // degree 3
        let shares = shares_of(&p, &f, 4);
        assert_eq!(interpolate_at_zero(&f, &shares).unwrap(), 77);
        // Extra shares do not change the value.
        let shares = shares_of(&p, &f, 9);
        assert_eq!(interpolate_at_zero(&f, &shares).unwrap(), 77);
    }

    #[test]
    fn too_few_points_miss_constant_term() {
        // With s <= deg f the interpolant at zero differs from f(0) (w.h.p.).
        let f = field();
        let p = Poly::from_coeffs(&f, vec![77, 3, 0, 9]);
        let shares = shares_of(&p, &f, 3);
        assert_ne!(interpolate_at_zero(&f, &shares).unwrap(), 77);
    }

    #[test]
    fn steps_algorithm_matches_textbook_formula() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for d in 1..=8 {
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            for s in 1..=10u64 {
                let shares = shares_of(&p, &f, s);
                assert_eq!(
                    interpolate_at_zero(&f, &shares).unwrap(),
                    interpolate_at_zero_steps(&f, &shares).unwrap(),
                    "d={d} s={s}"
                );
            }
        }
    }

    #[test]
    fn resolve_finds_exact_degree() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for d in 1..=12 {
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            let shares = shares_of(&p, &f, 16);
            assert_eq!(resolve_zero_degree(&f, &shares), Some(d), "degree {d}");
        }
    }

    #[test]
    fn resolve_zero_polynomial_is_degree_zero() {
        let f = field();
        let shares: Vec<(u64, u64)> = (1..=4).map(|a| (a, 0)).collect();
        assert_eq!(resolve_zero_degree(&f, &shares), Some(0));
    }

    #[test]
    fn resolve_needs_degree_plus_one_shares() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = Poly::random_zero_constant(&f, 6, &mut rng);
        assert_eq!(resolve_zero_degree(&f, &shares_of(&p, &f, 6)), None);
        assert_eq!(resolve_zero_degree(&f, &shares_of(&p, &f, 7)), Some(6));
    }

    #[test]
    fn resolve_among_candidates_skips_impossible_degrees() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let p = Poly::random_zero_constant(&f, 5, &mut rng);
        let shares = shares_of(&p, &f, 10);
        // Candidate set {3, 5, 7} (degrees sigma - w for w in W).
        assert_eq!(resolve_zero_degree_among(&f, &shares, &[3, 5, 7]), Some(5));
        // Candidate set without the true degree fails cleanly... w.h.p. the
        // wrong candidates do not accidentally resolve.
        assert_eq!(resolve_zero_degree_among(&f, &shares, &[3, 4]), None);
        // Not enough shares for any candidate.
        assert_eq!(resolve_zero_degree_among(&f, &shares[..3], &[5]), None);
    }

    #[test]
    fn resolve_on_inconsistent_duplicate_points_is_none() {
        let f = field();
        let shares = vec![(1u64, 5u64), (1, 6)];
        assert_eq!(resolve_zero_degree(&f, &shares), None);
    }

    proptest! {
        #[test]
        fn random_polynomials_resolve(
            d in 1usize..10,
            seed in 0u64..5000,
        ) {
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            let shares: Vec<(u64, u64)> = (1..=(d as u64 + 3)).map(|a| (a, p.eval(&f, a))).collect();
            // resolve may (rarely, ~s/q) resolve early; never late.
            let resolved = resolve_zero_degree(&f, &shares);
            prop_assert!(resolved.is_some());
            prop_assert!(resolved.unwrap() <= d);
        }

        #[test]
        fn interpolation_is_linear(
            seed in 0u64..5000,
            d1 in 1usize..6,
            d2 in 1usize..6,
        ) {
            // interp(f + g) = interp(f) + interp(g) at fixed points — the
            // property that lets DMW interpolate the *sum* polynomial E from
            // published per-agent values.
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p1 = Poly::random_zero_constant(&f, d1, &mut rng);
            let p2 = Poly::random_zero_constant(&f, d2, &mut rng);
            let points: Vec<u64> = (1..=8).collect();
            let s1: Vec<(u64, u64)> = points.iter().map(|&a| (a, p1.eval(&f, a))).collect();
            let s2: Vec<(u64, u64)> = points.iter().map(|&a| (a, p2.eval(&f, a))).collect();
            let ssum: Vec<(u64, u64)> = points
                .iter()
                .map(|&a| (a, f.add(p1.eval(&f, a), p2.eval(&f, a))))
                .collect();
            let lhs = interpolate_at_zero(&f, &ssum).unwrap();
            let rhs = f.add(
                interpolate_at_zero(&f, &s1).unwrap(),
                interpolate_at_zero(&f, &s2).unwrap(),
            );
            prop_assert_eq!(lhs, rhs);
        }
    }
}
