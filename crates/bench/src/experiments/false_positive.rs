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
//!
//! The second table runs whole honest first-price resolutions (equation
//! (12)) at the same small `q` and counts how often each resolver returns
//! a price other than the minimum bid. The ascending scan tests every
//! candidate above the truth, so it risks `≈ 1/q` per candidate at least
//! two degrees below it; the search tests about three candidates, and when
//! the minimum bid is 1 its only test below the truth is the one that
//! cannot pass.

use super::rng;
use crate::table::Report;
use dmw_crypto::resolution::{resolve_min_bid, scan_min_bid};
use dmw_crypto::BidEncoding;
use dmw_modmath::lagrange::ZeroCoefficients;
use dmw_modmath::{Poly, PrimeField, SchnorrGroup};
use rand::Rng;

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

/// Agents of each resolution in [`resolution_accidents`]: the most that
/// `q = 11` can host (`q ≥ n + 2`).
pub const RESOLUTION_AGENTS: usize = 8;

/// How often honest first-price resolutions over a group of order `q`
/// resolve falsely: `trials` auctions of [`RESOLUTION_AGENTS`] agents
/// (`c = 1`) with uniform bids and fresh pseudonyms, each resolved by the
/// ascending scan and by the search. Returns the fraction of auctions
/// whose resolved price is not the minimum bid, `(scan, search)`.
///
/// # Panics
///
/// Panics if `q` is not a prime of at least `RESOLUTION_AGENTS + 2`.
pub fn resolution_accidents(q: u64, trials: u32, seed: u64) -> (f64, f64) {
    let mut r = rng(seed);
    let group = SchnorrGroup::generate_with_order(20, q, &mut r).expect("prime q below 2^18");
    let encoding = BidEncoding::new(RESOLUTION_AGENTS, 1).expect("valid encoding");
    assert!(
        q >= encoding.min_group_order(),
        "q too small for the auction"
    );
    let zq = group.zq();
    let (mut scan_misses, mut search_misses) = (0u32, 0u32);
    for _ in 0..trials {
        let bids: Vec<u64> = (0..RESOLUTION_AGENTS)
            .map(|_| r.gen_range(1..=encoding.w_max()))
            .collect();
        let e_polys: Vec<Poly> = bids
            .iter()
            .map(|&b| {
                let degree = encoding.degree_of_bid(b).expect("bid in W");
                Poly::random_zero_constant(&zq, degree, &mut r)
            })
            .collect();
        let alphas = zq.rand_distinct_nonzero(RESOLUTION_AGENTS, &mut r);
        let points =
            ZeroCoefficients::from_points(&zq, &alphas).expect("distinct non-zero pseudonyms");
        let lambdas: Vec<u64> = alphas
            .iter()
            .map(|&alpha| {
                let e_sum = e_polys
                    .iter()
                    .fold(0, |acc, e| zq.add(acc, e.eval(&zq, alpha)));
                group.pow_z1(e_sum)
            })
            .collect();
        let truth = bids.iter().copied().min();
        let scan = scan_min_bid(&group, &encoding, &alphas, &lambdas).map(|p| p.bid);
        let search = resolve_min_bid(&group, &encoding, &points, &lambdas).map(|p| p.bid);
        scan_misses += u32::from(scan.ok() != truth);
        search_misses += u32::from(search.ok() != truth);
    }
    (
        f64::from(scan_misses) / f64::from(trials),
        f64::from(search_misses) / f64::from(trials),
    )
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

    let trials = 20_000u32;
    let mut rows = Vec::new();
    for &q in &[11u64, 31, 101, 251, 1031] {
        let (scan, search) = resolution_accidents(q, trials, seed ^ q);
        rows.push(vec![
            q.to_string(),
            format!("{scan:.5}"),
            format!("{search:.5}"),
            format!("{:.2}", scan * q as f64),
            format!("{:.2}", search * q as f64),
        ]);
    }
    report.table(
        format!(
            "honest first-price resolutions (eq. 12), n = {RESOLUTION_AGENTS}, c = 1, uniform bids, {trials} auctions per q"
        ),
        &[
            "q",
            "scan: false rate",
            "search: false rate",
            "scan × q",
            "search × q",
        ],
        rows,
    );
    report.note("In the second table, a false resolution is a resolved price other than the minimum bid. The scan meets the 1/q accident at every candidate at least two degrees below the true degree; the search makes about three tests, and only when the minimum bid exceeds 1 can one of them fall below the truth. Part of what remains both share: tied minimum bids whose leading coefficients cancel lower the degree of E itself, and both resolvers then return the same higher price.".to_string());
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn search_resolves_falsely_less_often_than_the_scan() {
        let (scan, search) = super::resolution_accidents(31, 4_000, 5);
        assert!(scan > 0.0, "the scan meets accidents at q = 31");
        assert!(search < scan, "search {search} vs scan {scan}");
    }

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
