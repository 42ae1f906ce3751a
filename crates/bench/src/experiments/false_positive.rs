//! FP — "the degree resolution mistakenly succeeds with probability 1/p"
//! (§2.4; `1/q` in this implementation's exponent-field formulation).
//!
//! With `s ≤ deg f − 1` shares, the Lagrange interpolation at zero of a
//! random zero-constant polynomial is a uniform field element, so it
//! vanishes — a *false* resolution success — with probability `1/q`.
//! Sweeping small `q` makes the rate measurable.
//!
//! A sharpening over the paper's claim falls out of the analysis: with
//! *exactly* `s = deg f` shares the interpolant at zero equals
//! `−a_d · Π α_j ≠ 0` (the leading coefficient is non-zero by
//! construction), so that boundary case can never falsely resolve — the
//! `1/q` accident applies only to candidates at least two degrees below
//! the truth.

use super::rng;
use crate::table::Report;
use dmw_modmath::lagrange::ZeroCoefficients;
use dmw_modmath::{Poly, PrimeField};

/// Measures the false-success rate for `trials` random degree-`d`
/// polynomials interpolated from `d − 1` shares (two fewer than needed
/// for a true resolution; see the module docs for why `d` shares can
/// never falsely resolve).
///
/// # Panics
///
/// Panics if `degree < 2`.
pub fn measure(q: u64, degree: usize, trials: u32, seed: u64) -> f64 {
    assert!(degree >= 2, "need at least two shares short of resolution");
    let field = PrimeField::new(q).expect("prime q");
    let mut rho = ZeroCoefficients::new();
    for a in 1..degree as u64 {
        rho.push(&field, a).expect("distinct points");
    }
    let mut r = rng(seed);
    let mut hits = 0u32;
    for _ in 0..trials {
        let poly = Poly::random_zero_constant(&field, degree, &mut r);
        if rho.at_zero(&field, (1..degree as u64).map(|a| poly.eval(&field, a))) == 0 {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Builds the false-positive report.
pub fn run(seed: u64) -> Report {
    let mut report = Report::new("Accidental degree resolution — measured rate vs 1/q (§2.4)");
    report.note("Interpolating a degree-d zero-constant polynomial from d − 1 shares: the value at zero is uniform, so it vanishes with probability 1/q. (With exactly d shares the accident is impossible — the leading coefficient is non-zero — a sharpening of the paper's 1/p claim.)");

    let trials = 40_000u32;
    let degree = 5usize;
    let mut rows = Vec::new();
    for &q in &[11u64, 31, 101, 251, 1031] {
        let measured = measure(q, degree, trials, seed + q);
        rows.push(vec![
            q.to_string(),
            format!("{:.5}", 1.0 / q as f64),
            format!("{measured:.5}"),
            format!("{:.2}", measured * q as f64),
        ]);
    }
    report.table(
        format!("degree {degree}, {trials} trials per q"),
        &["q", "predicted 1/q", "measured rate", "measured × q (→ 1)"],
        rows,
    );
    report.note("At the production group size (|q| ≈ 24 bits and up) the accident probability is below 10⁻⁷ per candidate.".to_string());
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn rate_tracks_one_over_q() {
        for &q in &[11u64, 101] {
            let measured = super::measure(q, 4, 30_000, 81);
            let predicted = 1.0 / q as f64;
            assert!(
                (measured - predicted).abs() < 4.0 * (predicted / 30_000f64).sqrt() + 1e-3,
                "q={q}: measured {measured} vs predicted {predicted}"
            );
        }
    }
}
