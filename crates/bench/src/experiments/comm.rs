//! T1-comm — Table 1, row "Communication cost": MinWork `Θ(mn)` vs DMW
//! `Θ(mn²)`.
//!
//! Centralized MinWork exchanges `m·n` bid values in and `n` outcome
//! messages out; DMW's traffic is measured from the simulated network
//! (broadcast = `n − 1` unicasts, the paper's accounting). The report
//! sweeps `n` at fixed `m` and `m` at fixed `n`, and fits the log–log
//! growth exponents, which should approach 2 in `n` and 1 in `m`.

use super::{config, log_log_slope, random_bids, rng};
use crate::table::Report;
use dmw::batch::BatchRunner;
use dmw::obedient::{run_obedient, LeaderBehavior};
use dmw::runner::DmwRunner;

/// Point-to-point *values* transferred by centralized MinWork, `Θ(mn)` —
/// the paper's unit for Table 1 (each bid value counted).
pub fn centralized_values(n: usize, m: usize) -> u64 {
    (m * n + n) as u64
}

/// Measures one honest DMW run's traffic.
pub fn dmw_traffic(n: usize, c: usize, m: usize, seed: u64) -> dmw_simnet::NetworkStats {
    let mut r = rng(seed);
    let cfg = config(n, c, &mut r);
    let bids = random_bids(&cfg, m, &mut r);
    let run = DmwRunner::new(cfg)
        .run_honest(&bids, &mut r)
        .expect("valid run");
    assert!(run.is_completed(), "honest run must complete");
    run.network
}

/// Builds the full communication report.
pub fn run(seed: u64) -> Report {
    let mut report = Report::new("Table 1 — communication cost: MinWork Θ(mn) vs DMW Θ(mn²)");
    report.note(
        "DMW traffic measured on the simulated network; broadcast = n−1 unicasts (Theorem 11).",
    );
    report.note("MinWork counts the m·n bid values in plus n outcome messages out.");

    report.note("The obedient-leader column is the Open Problem 10 strawman: Θ(mn)-cheap but unverifiable trust in the leader.");

    let engine = BatchRunner::new();
    let c = 1usize;
    // Sweep n at fixed m. Every sweep point seeds its own streams (the
    // original per-point seeds), so fanning them across the engine leaves
    // each measurement byte-identical to a sequential run.
    let m = 4usize;
    let n_sweep = [4usize, 6, 8, 12, 16, 24, 32];
    let measurements = engine.map(&n_sweep, |_, &n| {
        let stats = dmw_traffic(n, c, m, seed + n as u64);
        let obedient = {
            let mut r = rng(seed + 1000 + n as u64);
            let cfg = config(n, c, &mut r);
            let bids = random_bids(&cfg, m, &mut r);
            run_obedient(&bids, LeaderBehavior::Honest)
                .expect("valid run")
                .network
                .point_to_point
        };
        (stats, obedient)
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&n, (stats, obedient)) in n_sweep.iter().zip(&measurements) {
        let centralized = centralized_values(n, m);
        points.push((n as f64, stats.point_to_point as f64));
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            centralized.to_string(),
            obedient.to_string(),
            stats.point_to_point.to_string(),
            stats.bytes.to_string(),
            format!("{:.1}", stats.point_to_point as f64 / centralized as f64),
        ]);
    }
    let slope_n = log_log_slope(&points);
    report.table(
        format!("sweep over n (m = {m}, c = {c}) — measured growth exponent in n: {slope_n:.2} (paper: 2)"),
        &["n", "m", "MinWork values Θ(mn)", "obedient msgs", "DMW messages", "DMW bytes", "ratio DMW/MinWork"],
        rows,
    );

    // Sweep m at fixed n.
    let n = 8usize;
    let m_sweep = [1usize, 2, 4, 8, 16, 32];
    let measurements = engine.map(&m_sweep, |_, &m| {
        dmw_traffic(n, c, m, seed + 100 + m as u64)
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&m, stats) in m_sweep.iter().zip(&measurements) {
        let centralized = centralized_values(n, m);
        points.push((m as f64, stats.point_to_point as f64));
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            centralized.to_string(),
            stats.point_to_point.to_string(),
            stats.bytes.to_string(),
            format!("{:.1}", stats.point_to_point as f64 / centralized as f64),
        ]);
    }
    let slope_m = log_log_slope(&points);
    report.table(
        format!("sweep over m (n = {n}, c = {c}) — measured growth exponent in m: {slope_m:.2} (paper: 1)"),
        &["n", "m", "MinWork values Θ(mn)", "DMW messages", "DMW bytes", "ratio"],
        rows,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_grows_quadratically_in_n() {
        let m = 2;
        let points: Vec<(f64, f64)> = [4usize, 8, 16]
            .iter()
            .map(|&n| (n as f64, dmw_traffic(n, 1, m, 1).point_to_point as f64))
            .collect();
        let slope = log_log_slope(&points);
        assert!((1.6..=2.4).contains(&slope), "slope {slope} not ≈ 2");
    }

    #[test]
    fn traffic_grows_linearly_in_m() {
        let n = 6;
        let points: Vec<(f64, f64)> = [2usize, 4, 8, 16]
            .iter()
            .map(|&m| (m as f64, dmw_traffic(n, 1, m, 2).point_to_point as f64))
            .collect();
        let slope = log_log_slope(&points);
        assert!((0.8..=1.2).contains(&slope), "slope {slope} not ≈ 1");
    }

    #[test]
    fn report_renders() {
        let r = run(3);
        let s = r.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("growth exponent"));
    }
}
