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
//! Plain interpolation is the basis-polynomial formula of Definition 11 /
//! equation (2), `f(0) = Σ_k ρ_k · f(α_k)`: [`ZeroCoefficients::at_zero`]
//! over the builder's points.
//!
//! The *distributed* variant used by DMW operates in the exponent: each
//! agent publishes `Λ_k = z1^{E(α_k)}` and anyone checks
//! `Π Λ_k^{ρ_k} = 1` (equation (12)). [`zero_coefficients`] computes the
//! `ρ_k` of one whole point set in `Θ(s²)`; it is the reference.
//! A [`ZeroCoefficients`] set instead moves between point sets a point at
//! a time, in `O(s)` multiplications and a single inversion per point:
//! [`ZeroCoefficients::push`] adds one, which is how an ascending degree
//! scan — [`resolve_zero_degree`] here, and equation (12)'s fallback scan
//! — grows its prefix; [`ZeroCoefficients::remove`] drops one, which is
//! how equation (12)'s search shrinks the coefficients of all `n`
//! pseudonyms, derived once per configuration, to the responsive agents
//! and then to ever shorter prefixes.

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

/// The Lagrange-at-zero coefficients of a point set that grows or shrinks
/// one point at a time: the incremental form of [`zero_coefficients`].
///
/// Adding a point `a` to `s` points rescales every old coefficient by
/// `a / (a − α_k)` and appends `ρ_new = (−1)^s · Π_k α_k / Π_k (a − α_k)`.
/// The `s` differences are inverted together (Montgomery's batch trick),
/// so a push costs one inversion and `O(s)` multiplications, and a scan
/// over every prefix of `n` points costs `O(n²)` multiplications and
/// `n − 1` inversions rather than `O(n³)` and `O(n²)`. Removing a point
/// undoes its factor in every other coefficient at the same price. The
/// coefficients are always the same field elements [`zero_coefficients`]
/// returns for the current points.
///
/// # Example
/// ```
/// use dmw_modmath::{lagrange, PrimeField};
///
/// let f = PrimeField::new(1031)?;
/// let points = [3, 7, 11];
/// let mut rho = lagrange::ZeroCoefficients::new();
/// for s in 1..=points.len() {
///     rho.push(&f, points[s - 1])?;
///     assert_eq!(rho.coefficients(), lagrange::zero_coefficients(&f, &points[..s])?);
/// }
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroCoefficients {
    points: Vec<u64>,
    coeffs: Vec<u64>,
    /// `Π_k α_k` over `points`.
    product: u64,
}

impl Default for ZeroCoefficients {
    fn default() -> Self {
        Self::new()
    }
}

impl ZeroCoefficients {
    /// An empty point set.
    pub fn new() -> Self {
        ZeroCoefficients {
            points: Vec::new(),
            coeffs: Vec::new(),
            product: 1,
        }
    }

    /// The coefficients of `points`, pushed in order.
    ///
    /// # Errors
    ///
    /// The first error [`push`](Self::push) meets.
    pub fn from_points(field: &PrimeField, points: &[u64]) -> Result<Self, ModMathError> {
        let mut rho = Self::new();
        for &a in points {
            rho.push(field, a)?;
        }
        Ok(rho)
    }

    /// `ρ_k` for every point added so far, in the order they were added.
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// The current points, in the order they were added.
    pub fn points(&self) -> &[u64] {
        &self.points
    }

    /// Number of points added so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` before the first point is added.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds the point `a` and updates every coefficient.
    ///
    /// # Errors
    ///
    /// The point checks of [`zero_coefficients`], applied to `a` alone;
    /// on error the builder is left unchanged.
    /// * [`ModMathError::OutOfRange`] if `a` is zero or not reduced.
    /// * [`ModMathError::DuplicatePoint`] if `a` was already added.
    pub fn push(&mut self, field: &PrimeField, a: u64) -> Result<(), ModMathError> {
        if a == 0 || !field.contains(a) {
            return Err(ModMathError::OutOfRange {
                value: a,
                modulus: field.modulus(),
            });
        }
        if self.points.contains(&a) {
            return Err(ModMathError::DuplicatePoint { point: a });
        }
        if self.points.is_empty() {
            // The empty product: ρ = 1, no inversion needed.
            self.points.push(a);
            self.coeffs.push(1);
            self.product = a;
            return Ok(());
        }
        // prefix[k] = Π_{i<k} (a − α_i); `running` ends as the full product.
        let mut prefix = Vec::with_capacity(self.points.len());
        let mut running = 1u64;
        for &ak in &self.points {
            prefix.push(running);
            running = field.mul(running, field.sub(a, ak));
        }
        // `running` is a product of differences of distinct points, hence
        // nonzero; propagate rather than panic anyway.
        let inv_all = field.inv(running)?;
        let fresh = field.mul(self.product, inv_all);
        let fresh = if self.points.len().is_multiple_of(2) {
            fresh
        } else {
            field.neg(fresh)
        };
        // Walk back with `scaled = a / Π_{i≤k} (a − α_i)`, so that
        // `scaled · prefix[k] = a / (a − α_k)`.
        let mut scaled = field.mul(a, inv_all);
        for ((rho, &ak), &before) in self.coeffs.iter_mut().zip(&self.points).zip(&prefix).rev() {
            *rho = field.mul(*rho, field.mul(scaled, before));
            scaled = field.mul(scaled, field.sub(a, ak));
        }
        self.coeffs.push(fresh);
        self.points.push(a);
        self.product = field.mul(self.product, a);
        Ok(())
    }

    /// Removes the point at `index` and updates every other coefficient.
    ///
    /// Dropping `α_j` takes its factor `α_j / (α_j − α_k)` out of every
    /// other `ρ_k`, so `ρ_k ← ρ_k · (α_j − α_k) · α_j⁻¹`: one inversion
    /// and `2(s − 1) + 1` multiplications. Removing the last point of a
    /// pushed sequence undoes that push exactly.
    ///
    /// # Errors
    ///
    /// [`ModMathError::OutOfRange`] if `index` is not below
    /// [`len`](Self::len); the builder is left unchanged.
    ///
    /// # Example
    /// ```
    /// use dmw_modmath::{lagrange, PrimeField};
    ///
    /// let f = PrimeField::new(1031)?;
    /// let mut rho = lagrange::ZeroCoefficients::new();
    /// for a in [3, 7, 11] {
    ///     rho.push(&f, a)?;
    /// }
    /// rho.remove(&f, 1)?;
    /// assert_eq!(rho.points(), [3, 11]);
    /// assert_eq!(rho.coefficients(), lagrange::zero_coefficients(&f, &[3, 11])?);
    /// # Ok::<(), dmw_modmath::ModMathError>(())
    /// ```
    pub fn remove(&mut self, field: &PrimeField, index: usize) -> Result<(), ModMathError> {
        let Some(&a) = self.points.get(index) else {
            return Err(ModMathError::OutOfRange {
                value: index as u64,
                modulus: self.points.len() as u64,
            });
        };
        // Every stored point is non-zero, so it inverts.
        let inv_a = field.inv(a)?;
        self.points.remove(index);
        self.coeffs.remove(index);
        for (rho, &ak) in self.coeffs.iter_mut().zip(&self.points) {
            *rho = field.mul(field.mul(*rho, field.sub(a, ak)), inv_a);
        }
        self.product = field.mul(self.product, inv_a);
        Ok(())
    }

    /// Interpolates `f(0) = Σ_k ρ_k · f(α_k)` from the values `f(α_k)` at
    /// the points added so far, in order (extra values are ignored). The
    /// result equals the true `f(0)` iff `deg f ≤ s − 1` for `s` points
    /// (up to the `1/q` accident).
    ///
    /// # Example
    /// ```
    /// use dmw_modmath::{lagrange, PrimeField, Poly};
    ///
    /// let f = PrimeField::new(101)?;
    /// let p = Poly::from_coeffs(&f, vec![42, 1, 1]); // degree 2
    /// let mut rho = lagrange::ZeroCoefficients::new();
    /// for a in 1..=3 {
    ///     rho.push(&f, a)?;
    /// }
    /// assert_eq!(rho.at_zero(&f, (1..=3).map(|a| p.eval(&f, a))), 42);
    /// # Ok::<(), dmw_modmath::ModMathError>(())
    /// ```
    pub fn at_zero(&self, field: &PrimeField, values: impl IntoIterator<Item = u64>) -> u64 {
        self.coeffs
            .iter()
            .zip(values)
            .fold(0, |acc, (&rho, v)| field.add(acc, field.mul(v, rho)))
    }
}

/// Resolves the degree of a zero-constant-term polynomial from its shares:
/// returns the smallest `s − 1` such that the `s`-share interpolation at
/// zero vanishes, scanning `s = 1, 2, …`. Returns `None` if no prefix of the
/// shares resolves (i.e. `deg f ≥ shares.len()`, or the shares are
/// inconsistent), or when the scan reaches a zero, unreduced or repeated
/// point.
///
/// For an honest degree-`d` polynomial this returns `Some(d)` whenever at
/// least `d + 1` shares are supplied, except for an `O(s/q)` chance of
/// resolving early (measured by the `false-positive` experiment). The
/// Theorem 10 collusion attack (`dmw::collusion`) runs it on pooled shares.
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
    let mut rho = ZeroCoefficients::new();
    for (s, &(a, _)) in shares.iter().enumerate() {
        rho.push(field, a).ok()?;
        if rho.at_zero(field, shares.iter().map(|&(_, v)| v)) == 0 {
            return Some(s);
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

    /// `f(0)` interpolated from `shares` by [`ZeroCoefficients::at_zero`].
    fn interpolate(f: &PrimeField, shares: &[(u64, u64)]) -> u64 {
        let mut rho = ZeroCoefficients::new();
        for &(a, _) in shares {
            rho.push(f, a).unwrap();
        }
        rho.at_zero(f, shares.iter().map(|&(_, v)| v))
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
        assert_eq!(interpolate(&f, &shares_of(&p, &f, 4)), 77);
        // Extra shares do not change the value.
        assert_eq!(interpolate(&f, &shares_of(&p, &f, 9)), 77);
    }

    #[test]
    fn too_few_points_miss_constant_term() {
        // With s <= deg f the interpolant at zero differs from f(0) (w.h.p.).
        let f = field();
        let p = Poly::from_coeffs(&f, vec![77, 3, 0, 9]);
        assert_ne!(interpolate(&f, &shares_of(&p, &f, 3)), 77);
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
    fn resolve_on_inconsistent_duplicate_points_is_none() {
        let f = field();
        let shares = vec![(1u64, 5u64), (1, 6)];
        assert_eq!(resolve_zero_degree(&f, &shares), None);
    }

    #[test]
    fn builder_push_costs_one_inversion_and_linear_muls() {
        let f = PrimeField::new(1_000_003).unwrap();
        let mut rho = ZeroCoefficients::new();
        for a in 1..=40u64 {
            let before = crate::ops::current_ops();
            rho.push(&f, a).unwrap();
            let cost = crate::ops::current_ops().since(&before);
            let s = a - 1; // points already present
            assert_eq!(cost.inv, u64::from(s > 0), "push {a}");
            assert!(cost.mul <= 4 * s + 3, "push {a}: {} muls", cost.mul);
        }
    }

    fn built(f: &PrimeField, points: &[u64]) -> ZeroCoefficients {
        ZeroCoefficients::from_points(f, points).unwrap()
    }

    #[test]
    fn removing_down_to_one_point_leaves_coefficient_one() {
        let f = field();
        let points = [3, 7, 11, 19, 23];
        for keep in 0..points.len() {
            let mut rho = built(&f, &points);
            // Remove every other point, from the back so indices hold.
            for index in (0..points.len()).rev().filter(|&i| i != keep) {
                rho.remove(&f, index).unwrap();
            }
            assert_eq!(rho.points(), [points[keep]]);
            assert_eq!(rho.coefficients(), [1]);
            // The set is a fresh one-point set, down to its product.
            assert_eq!(rho, built(&f, &[points[keep]]));
        }
    }

    #[test]
    fn remove_costs_one_inversion_and_linear_muls_and_rejects_bad_indices() {
        let f = PrimeField::new(1_000_003).unwrap();
        let mut rho = built(&f, &(1..=40).collect::<Vec<u64>>());
        let before = rho.clone();
        assert!(matches!(
            rho.remove(&f, 40),
            Err(ModMathError::OutOfRange {
                value: 40,
                modulus: 40
            })
        ));
        assert_eq!(rho, before, "a failed remove changes nothing");
        while !rho.is_empty() {
            let s = rho.len() as u64;
            let before = crate::ops::current_ops();
            rho.remove(&f, 0).unwrap();
            let cost = crate::ops::current_ops().since(&before);
            assert_eq!(cost.inv, 1, "remove from {s} points");
            assert_eq!(cost.mul, 2 * (s - 1) + 1, "remove from {s} points");
        }
        assert_eq!(rho, ZeroCoefficients::new());
    }

    proptest! {
        #[test]
        fn removing_any_point_matches_zero_coefficients_of_the_rest(
            seed in 0u64..5000,
            len in 2usize..16,
            removals in proptest::collection::vec(0usize..16, 1..4),
        ) {
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut points = f.rand_distinct_nonzero(len, &mut rng);
            let mut rho = built(&f, &points);
            for index in removals {
                if points.len() < 2 {
                    break;
                }
                let index = index % points.len();
                rho.remove(&f, index).unwrap();
                points.remove(index);
                prop_assert_eq!(rho.points(), &points[..]);
                prop_assert_eq!(
                    rho.coefficients(),
                    &zero_coefficients(&f, &points).unwrap()[..]
                );
                // The product moves with the points: the set equals one
                // pushed from scratch, so its next push agrees too.
                prop_assert_eq!(&rho, &built(&f, &points));
            }
        }

        #[test]
        fn a_removed_then_re_pushed_point_round_trips(
            seed in 0u64..5000,
            len in 1usize..16,
            index in 0usize..16,
        ) {
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let points = f.rand_distinct_nonzero(len, &mut rng);
            let index = index % len;
            let mut rho = built(&f, &points);
            rho.remove(&f, index).unwrap();
            rho.push(&f, points[index]).unwrap();
            // The point comes back last; every coefficient stays with its
            // point.
            let mut moved = points.clone();
            let point = moved.remove(index);
            moved.push(point);
            prop_assert_eq!(&rho, &built(&f, &moved));
            if index == len - 1 {
                prop_assert_eq!(&rho, &built(&f, &points));
            }
        }

        #[test]
        fn builder_matches_zero_coefficients_on_every_prefix(
            seed in 0u64..5000,
            len in 1usize..16,
            at in 0usize..16,
            earlier in 0usize..16,
            bad in 0u8..4,
            degree in 1usize..16,
        ) {
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut points = f.rand_distinct_nonzero(len, &mut rng);
            // Insert at most one bad point, at index `at`.
            let at = at % (len + 1);
            let injected = match bad {
                0 => None,
                1 => Some((at, 0)),
                2 => Some((at, f.modulus() + seed % 7)),
                _ => {
                    // A duplicate of an earlier point.
                    let at = at.max(1);
                    Some((at, points[earlier % at]))
                }
            };
            if let Some((at, point)) = injected {
                points.insert(at, point);
            }
            // A polynomial with constant term 77 and exact degree `degree`.
            let p = Poly::random_zero_constant(&f, degree, &mut rng)
                .add(&f, &Poly::from_coeffs(&f, vec![77]));
            let mut rho = ZeroCoefficients::new();
            for s in 1..=points.len() {
                let reference = zero_coefficients(&f, &points[..s]);
                let before = rho.clone();
                match rho.push(&f, points[s - 1]) {
                    Ok(()) => {
                        prop_assert_eq!(Ok(rho.coefficients().to_vec()), reference.clone());
                        let values: Vec<u64> = points[..s].iter().map(|&a| p.eval(&f, a)).collect();
                        let naive = reference
                            .unwrap_or_default()
                            .iter()
                            .zip(&values)
                            .fold(0, |acc, (&r, &v)| f.add(acc, f.mul(r, v)));
                        let value = rho.at_zero(&f, values);
                        prop_assert_eq!(value, naive);
                        // More than `degree` points recover the constant
                        // term; exactly `degree` points always miss it.
                        if s > degree {
                            prop_assert_eq!(value, 77);
                        } else if s == degree {
                            prop_assert_ne!(value, 77);
                        }
                    }
                    Err(e) => {
                        prop_assert_eq!(Err(e), reference);
                        prop_assert_eq!(injected.map(|(at, _)| at), Some(s - 1));
                        prop_assert_eq!(&rho, &before, "a failed push changes nothing");
                        break;
                    }
                }
            }
            if injected.is_none() {
                prop_assert_eq!(rho.len(), points.len());
            }
        }

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
            let lhs = interpolate(&f, &ssum);
            let rhs = f.add(interpolate(&f, &s1), interpolate(&f, &s2));
            prop_assert_eq!(lhs, rhs);
        }
    }
}
