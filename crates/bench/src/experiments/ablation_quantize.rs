//! ABL-q — the cost of DMW's discrete bid set.
//!
//! DMW can only auction bids from `W` (at most `n − c − 1` levels), so
//! continuous execution times must be quantized. This ablation sweeps the
//! level count and measures (a) the value distortion and (b) how often the
//! coarsened auction picks a different winner than the continuous
//! mechanism would — the allocation cost of distribution that the paper
//! leaves unquantified.

use super::rng;
use crate::table::Report;
use dmw_mechanism::quantize::Quantizer;
use dmw_mechanism::{AgentId, TaskId};
use rand::Rng;

/// One sweep cell: distortion and winner-divergence rate.
pub fn cell(n: usize, m: usize, levels: usize, trials: u32, seed: u64) -> (f64, f64) {
    let mut r = rng(seed);
    let mut distortion_sum = 0.0;
    let mut diverged = 0u32;
    let mut tasks_total = 0u32;
    for _ in 0..trials {
        let times: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| r.gen_range(1.0..100.0)).collect())
            .collect();
        let quantizer = Quantizer::fit(&times, levels).expect("valid levels");
        distortion_sum += quantizer.distortion(&times);
        let bids = quantizer.quantize(&times).expect("valid shape");
        #[expect(
            clippy::needless_range_loop,
            reason = "j indexes two parallel structures"
        )]
        for j in 0..m {
            // Continuous winner: the true minimum time.
            let continuous_winner = (0..n)
                .min_by(|&a, &b| times[a][j].partial_cmp(&times[b][j]).expect("finite"))
                .expect("n >= 2");
            // Quantized winner with lowest-index tie-break.
            let column = bids.task_column(TaskId(j));
            let quantized_winner = (0..n).min_by_key(|&i| (column[i], i)).expect("n >= 2");
            let _ = AgentId(quantized_winner);
            if continuous_winner != quantized_winner {
                diverged += 1;
            }
            tasks_total += 1;
        }
    }
    (
        distortion_sum / trials as f64,
        diverged as f64 / tasks_total as f64,
    )
}

/// Builds the quantization ablation report.
pub fn run(seed: u64) -> Report {
    let n = 8usize;
    let m = 4usize;
    let trials = 50u32;
    let mut report = Report::new("Ablation — bid quantization (the price of discrete bids)");
    report.note(format!(
        "{trials} random continuous instances (times ∈ [1, 100)), n = {n}, m = {m}. \
         DMW at c faults admits |W| = n − c − 1 levels."
    ));

    let mut rows = Vec::new();
    for &levels in &[2usize, 3, 5, 7, 15, 31] {
        let (distortion, divergence) = cell(n, m, levels, trials, seed + levels as u64);
        rows.push(vec![
            levels.to_string(),
            format!("{:.1}%", distortion * 100.0),
            format!("{:.1}%", divergence * 100.0),
        ]);
    }
    report.table(
        "coarseness sweep",
        &[
            "bid levels |W|",
            "mean value distortion",
            "winner divergence vs continuous",
        ],
        rows,
    );
    report.note("More levels require more agents (|W| = n − c − 1): precision is bought with participation.".to_string());
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn finer_grids_reduce_both_metrics() {
        let (d2, w2) = super::cell(6, 3, 2, 30, 7);
        let (d31, w31) = super::cell(6, 3, 31, 30, 7);
        assert!(d31 < d2, "distortion must shrink: {d31} vs {d2}");
        assert!(w31 <= w2, "divergence must not grow: {w31} vs {w2}");
    }
}
